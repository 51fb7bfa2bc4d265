package runner

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/space"
	"repro/internal/stencil"
)

// gatherProblem runs p on a world from launch and returns rank 0's grid.
// It drives the executor's own description of a run, so a 3-D box may be
// split unevenly, which Run does not allow (model.Grid3D.Validate wants
// every processor to get the same extents).
func gatherProblem(t *testing.T, launch launcher, p problem) *stencil.Grid {
	t.Helper()
	n := int(p.procs[0] * p.procs[1])
	if err := p.validate(n); err != nil {
		t.Fatal(err)
	}
	var grid *stencil.Grid
	err := launch(n, func(c mp.Comm) error {
		l, _, err := p.run(c, p.space[2])
		if err != nil {
			return err
		}
		g, err := p.gather(c, l)
		if c.Rank() == 0 {
			grid = g
		}
		return err
	})
	if err != nil {
		t.Fatalf("%v on %v: %v", p.procs, p.space, err)
	}
	return grid
}

// TestGatherMatchesSequential: the streamed grid equals stencil.RunSequential
// bit for bit on every processor-grid shape, with splits that leave the
// boxes unequal, boxes smaller than one chunk and boxes several chunks long
// whose chunk ends fall inside a k-row — on the eager and pure-rendezvous
// in-process transports and on loopback TCP.
func TestGatherMatchesSequential(t *testing.T) {
	worlds := append(inprocWorlds[:len(inprocWorlds):len(inprocWorlds)], struct {
		name   string
		launch launcher
	}{"tcp", tcpLaunch(t)})
	for i, g := range []model.Grid3D{
		{I: 3, J: 5, K: 7, PI: 1, PJ: 1},
		{I: 5, J: 3, K: 9, PI: 2, PJ: 1},
		{I: 3, J: 5, K: 9, PI: 1, PJ: 2},
		{I: 5, J: 7, K: 6, PI: 2, PJ: 2},
		{I: 7, J: 5, K: 8, PI: 3, PJ: 2},
		{I: 3, J: 7, K: 20000, PI: 2, PJ: 1}, // boxes of 2.1 and 1.1 chunks
	} {
		ref, err := stencil.RunSequential(space.MustRect(g.I, g.J, g.K), stencil.Sqrt3D{}, positionBoundary)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Grid: g, V: 3, Kernel: stencil.Sqrt3D{}, Boundary: positionBoundary, Mode: Mode(i % 2)}
		for _, w := range worlds {
			what := fmt.Sprintf("%dx%dx%d on %dx%d %s", g.I, g.J, g.K, g.PI, g.PJ, w.name)
			requireBitIdentical(t, what, gatherProblem(t, w.launch, cfg.problem()), ref)
		}
	}
	for i, c := range []struct {
		ranks      int
		i1, i2, s1 int64
	}{
		{3, 50, 7, 8},        // strips 3, 2, 2 wide, far below a chunk
		{2, 150000, 3, 4096}, // strips of 2.3 and 1.1 chunks
	} {
		ref, err := stencil.RunSequential(space.MustRect(c.i1, c.i2), stencil.Sum2D{}, positionBoundary)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config2D{I1: c.i1, I2: c.i2, S1: c.s1, Kernel: stencil.Sum2D{}, Boundary: positionBoundary, Mode: Mode(i % 2)}
		for _, w := range worlds {
			what := fmt.Sprintf("2-D %dx%d on %d ranks %s", c.i1, c.i2, c.ranks, w.name)
			requireBitIdentical(t, what, gatherRun2D(t, w.launch, c.ranks, cfg), ref)
		}
	}
}

// framedComm stands in for a transport with a frame limit of gatherChunk
// bytes — TCP's is 64 MiB — and records what crosses it. A gather of a box
// many times the limit must pass through it untouched, which is the whole
// argument for a box over 64 MiB on TCP without a 128 MiB test.
type framedComm struct {
	mp.Comm
	mu    sync.Mutex
	sizes map[int][]int // message sizes by tag
}

func (f *framedComm) record(tag, n int) error {
	if n > gatherChunk {
		return fmt.Errorf("%d-byte message over the %d-byte frame limit", n, gatherChunk)
	}
	f.mu.Lock()
	f.sizes[tag] = append(f.sizes[tag], n)
	f.mu.Unlock()
	return nil
}

func (f *framedComm) Send(dst, tag int, data []byte) error {
	if err := f.record(tag, len(data)); err != nil {
		return err
	}
	return f.Comm.Send(dst, tag, data)
}

func (f *framedComm) Isend(dst, tag int, data []byte) (mp.Request, error) {
	if err := f.record(tag, len(data)); err != nil {
		return nil, err
	}
	return f.Comm.Isend(dst, tag, data)
}

// TestGatherChunksBounded: every gather message is at most gatherChunk
// bytes — the only message size rank 0 sends is the empty credit — and a
// sender's chunks add up to its box, so the same code carries any box over
// any transport whose frame limit is at least gatherChunk.
func TestGatherChunksBounded(t *testing.T) {
	if gatherChunk > 64<<20 || gatherChunk%8 != 0 {
		t.Fatalf("gatherChunk = %d: over TCP's 64 MiB frame limit, or not whole doubles", gatherChunk)
	}
	cfg := Config{Grid: model.Grid3D{I: 6, J: 5, K: 30000, PI: 3, PJ: 1}, V: 1000, Kernel: stencil.Sqrt3D{}, Mode: Overlapped}
	p := cfg.problem()
	comms := make([]*framedComm, 3)
	var grid *stencil.Grid
	err := mp.Launch(3, func(c mp.Comm) error {
		l, _, err := Run(c, cfg)
		if err != nil {
			return err
		}
		f := &framedComm{Comm: c, sizes: map[int][]int{}}
		comms[c.Rank()] = f
		g, err := Gather(f, cfg, l)
		if c.Rank() == 0 {
			grid = g
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank, f := range comms {
		for tag := range f.sizes {
			if tag != gatherTag {
				t.Errorf("rank %d sent on tag %d, not the gather's", rank, tag)
			}
		}
		sizes := f.sizes[gatherTag]
		var total int64
		for _, n := range sizes {
			total += int64(n)
		}
		g := p.geometry(rank)
		switch {
		case rank == 0 && total != 0:
			t.Errorf("rank 0 sent %d credit bytes, want empty credits", total)
		case rank > 0 && total != 8*g.points():
			t.Errorf("rank %d sent %d bytes in %d chunks, want its box's %d", rank, total, len(sizes), 8*g.points())
		case rank > 0 && len(sizes) < 3:
			t.Errorf("rank %d sent %d chunks: the test wants boxes several chunks long", rank, len(sizes))
		}
	}
	ref, err := stencil.RunSequential(space.MustRect(6, 5, 30000), stencil.Sqrt3D{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "framed gather", grid, ref)
}

// scriptedComm plays the peer of a gather without a second rank, and
// without allocating, so that what Gather allocates can be counted alone.
// As rank 1 it answers every credit receive at once and swallows the
// chunks; as rank 0's peer it completes every posted receive as a full
// chunk (of zeros — this test counts bytes, not values).
type scriptedComm struct {
	mp.Comm // nil: a method not overridden here is not part of the gather
	rank    int
	reqs    [2]doneReq
	next    int
}

type doneReq struct{ st mp.Status }

func (r *doneReq) Wait() (mp.Status, error)       { return r.st, nil }
func (r *doneReq) Test() (bool, mp.Status, error) { return true, r.st, nil }

func (s *scriptedComm) Rank() int                                { return s.rank }
func (s *scriptedComm) Size() int                                { return 2 }
func (s *scriptedComm) Send(int, int, []byte) error              { return nil }
func (s *scriptedComm) Recv(int, int, []byte) (mp.Status, error) { return mp.Status{}, nil }
func (s *scriptedComm) Abort(error) error                        { return nil }

func (s *scriptedComm) Isend(_, _ int, data []byte) (mp.Request, error) {
	return s.complete(len(data)), nil
}

func (s *scriptedComm) Irecv(_, _ int, buf []byte) (mp.Request, error) {
	return s.complete(len(buf)), nil
}

func (s *scriptedComm) complete(n int) *doneReq {
	r := &s.reqs[s.next&1]
	s.next++
	r.st = mp.Status{Bytes: n}
	return r
}

// TestGatherAllocations bounds what a gather allocates on each side, in
// process: two chunk buffers and a little bookkeeping on a sender, and the
// grid, two chunk buffers and a little bookkeeping on rank 0 — never a
// buffer the size of a box, of which the boxes here are eight chunks long.
func TestGatherAllocations(t *testing.T) {
	const slack = 16 << 10
	cfg := Config{Grid: model.Grid3D{I: 64, J: 64, K: 512, PI: 2, PJ: 1}, V: 128, Kernel: stencil.Sqrt3D{}, Mode: Overlapped}
	locals := make([]*Local, 2)
	err := mp.Launch(2, func(c mp.Comm) (err error) {
		locals[c.Rank()], _, err = Run(c, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := locals[1].points(); n < 8*chunkValues {
		t.Fatalf("box of %d values, want one several chunks long", n)
	}
	gridBytes := uint64(8 * cfg.Grid.I * cfg.Grid.J * cfg.Grid.K)
	for rank, limit := range []uint64{gridBytes + 2*gatherChunk + slack, 2*gatherChunk + slack} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Gather(&scriptedComm{rank: rank}, cfg, locals[rank]); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("rank %d: the gather allocated %d bytes, over the %d the grid and two chunks need", rank, got, limit)
		}
	}
}
