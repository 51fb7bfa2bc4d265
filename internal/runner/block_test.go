package runner

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/space"
	"repro/internal/stencil"
)

// passThrough embeds a kernel and adds nothing: its method set is exactly
// stencil.Kernel's, so the block method of the kernel inside is hidden and
// Run has to take the per-point path.
type passThrough struct{ stencil.Kernel }

// launcher runs fn on every rank of a fresh n-rank world.
type launcher func(n int, fn func(mp.Comm) error) error

func rendezvousLaunch(n int, fn func(mp.Comm) error) error {
	return mp.LaunchOpts(n, mp.WorldOptions{RendezvousThreshold: 0}, fn)
}

// inprocWorlds are the two in-process transports: sends that complete at
// once, and sends that complete only when the receiver matches.
var inprocWorlds = []struct {
	name   string
	launch launcher
}{{"eager", mp.Launch}, {"rendezvous", rendezvousLaunch}}

// tcpLaunch meshes n goroutine ranks over loopback TCP.
func tcpLaunch(t *testing.T) launcher {
	return func(n int, fn func(mp.Comm) error) error {
		addrs := freeAddrs(t, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c, err := mp.ConnectTCP(rank, n, addrs, nil)
				if err != nil {
					errs[rank] = err
					return
				}
				defer c.Close()
				errs[rank] = fn(c)
			}(i)
		}
		wg.Wait()
		for rank, err := range errs {
			if err != nil {
				return fmt.Errorf("rank %d: %w", rank, err)
			}
		}
		return nil
	}
}

// gatherRun executes cfg on a world from launch and returns rank 0's grid.
func gatherRun(t *testing.T, launch launcher, cfg Config) *stencil.Grid {
	t.Helper()
	var grid *stencil.Grid
	err := launch(int(cfg.Grid.PI*cfg.Grid.PJ), func(c mp.Comm) error {
		l, _, err := Run(c, cfg)
		if err != nil {
			return err
		}
		g, err := Gather(c, cfg, l)
		if c.Rank() == 0 {
			grid = g // Launch's wait orders this write before the read below
		}
		return err
	})
	if err != nil {
		t.Fatalf("%v on %+v V=%d: %v", cfg.Mode, cfg.Grid, cfg.V, err)
	}
	return grid
}

func requireBitIdentical(t *testing.T, what string, got, want *stencil.Grid) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d values, want %d", what, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: value %d is %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// positionBoundary differs at every ghost point a run reads, so a ghost
// plane filled from the wrong coordinates cannot cancel out.
func positionBoundary(j ilmath.Vec) float64 {
	b := 1 + float64((j[0]+2)*3%7) + float64((j[1]+2)*5%11)/4
	if len(j) > 2 {
		b += float64((j[2]+2)%13) / 16
	}
	return b
}

// TestBlockPathMatchesGenericAndSequential is the differential test behind
// the block fast path: over seeded random geometries the grid computed from
// stencil.Sqrt3D{} (block path), from the same kernel behind a pass-through
// decorator (per-point path) and by stencil.RunSequential are identical bit
// for bit — in both modes, on eager and on pure-rendezvous in-process
// worlds, with tile heights that do not divide K, V = 1 and V = K, and a
// boundary that depends on position. The random geometries have at most
// three rows per rank; fixed ones add ranks of 4, 7, 8, 9, 15 and 16 rows
// and tiles longer than the kernel's 256-point chunk, so its grouped sweep
// of eight rows runs one and two whole groups, groups with rows left over,
// rows too few to group, and ragged last tiles too short to group.
func TestBlockPathMatchesGenericAndSequential(t *testing.T) {
	if _, ok := stencil.Kernel(stencil.Sqrt3D{}).(stencil.Block3D); !ok {
		t.Fatal("stencil.Sqrt3D does not offer the block path")
	}
	if _, ok := stencil.Kernel(passThrough{stencil.Sqrt3D{}}).(stencil.Block3D); ok {
		t.Fatal("an embedding decorator exposes the block path; the generic path would go untested")
	}
	type geometry struct {
		g  model.Grid3D
		vs []int64
	}
	var cases []geometry
	rng := rand.New(rand.NewSource(14))
	for _, procs := range [][2]int64{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 2}} {
		pi, pj := procs[0], procs[1]
		g := model.Grid3D{I: pi * (rng.Int63n(3) + 1), J: pj * (rng.Int63n(3) + 1), K: rng.Int63n(30) + 5, PI: pi, PJ: pj}
		ragged := rng.Int63n(g.K-2) + 2 // in [2, K)
		for g.K%ragged == 0 {
			ragged++ // K−1 never divides K ≥ 5, so this stops below K
		}
		cases = append(cases, geometry{g, []int64{ragged, 1, g.K}})
	}
	cases = append(cases,
		geometry{model.Grid3D{I: 3, J: 4, K: 300, PI: 1, PJ: 1}, []int64{7, 1, 300}},    // last tile 6
		geometry{model.Grid3D{I: 6, J: 14, K: 530, PI: 2, PJ: 2}, []int64{4, 1, 530}},   // last tile 2
		geometry{model.Grid3D{I: 4, J: 18, K: 600, PI: 2, PJ: 2}, []int64{257, 1, 600}}, // last tile 86
		geometry{model.Grid3D{I: 4, J: 16, K: 300, PI: 2, PJ: 2}, []int64{8, 1, 300}},   // last tile 4
		geometry{model.Grid3D{I: 3, J: 15, K: 270, PI: 1, PJ: 1}, []int64{9, 1, 270}},
		geometry{model.Grid3D{I: 2, J: 32, K: 260, PI: 2, PJ: 2}, []int64{17, 1, 260}}, // last tile 5
	)
	for _, c := range cases {
		g := c.g
		ref, err := stencil.RunSequential(space.MustRect(g.I, g.J, g.K), stencil.Sqrt3D{}, positionBoundary)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range c.vs {
			for _, mode := range []Mode{Blocking, Overlapped} {
				for _, w := range inprocWorlds {
					cfg := Config{Grid: g, V: v, Kernel: stencil.Sqrt3D{}, Boundary: positionBoundary, Mode: mode}
					what := fmt.Sprintf("%dx%dx%d on %dx%d V=%d %v %s", g.I, g.J, g.K, g.PI, g.PJ, v, mode, w.name)
					requireBitIdentical(t, what+": block path vs sequential", gatherRun(t, w.launch, cfg), ref)
					cfg.Kernel = passThrough{stencil.Sqrt3D{}}
					requireBitIdentical(t, what+": generic path vs sequential", gatherRun(t, w.launch, cfg), ref)
				}
			}
		}
	}
}

// gatherRun2D is gatherRun for the Example 1 shape on n ranks.
func gatherRun2D(t *testing.T, launch launcher, n int, cfg Config2D) *stencil.Grid {
	t.Helper()
	var grid *stencil.Grid
	err := launch(n, func(c mp.Comm) error {
		l, _, err := Run2D(c, cfg)
		if err != nil {
			return err
		}
		g, err := Gather2D(c, cfg, l)
		if c.Rank() == 0 {
			grid = g
		}
		return err
	})
	if err != nil {
		t.Fatalf("%v on %dx%d S1=%d, %d ranks: %v", cfg.Mode, cfg.I1, cfg.I2, cfg.S1, n, err)
	}
	return grid
}

// TestBlockPath2DMatchesGenericAndSequential is the same differential test
// for stencil.Sum2D through Run2D: strips of unequal width, tile sides that
// do not divide I1, S1 = 1 and S1 = I1, and a boundary that depends on
// position — so the corner each face message carries for the diagonal
// dependence cannot be confused with its neighbours.
func TestBlockPath2DMatchesGenericAndSequential(t *testing.T) {
	if _, ok := stencil.Kernel(stencil.Sum2D{}).(stencil.Block3D); !ok {
		t.Fatal("stencil.Sum2D does not offer the block path")
	}
	rng := rand.New(rand.NewSource(22))
	for _, ranks := range []int{1, 2, 3, 5} {
		i1 := rng.Int63n(30) + 5
		i2 := int64(ranks)*(rng.Int63n(3)+1) + int64(ranks)/2 // ranks > 1: the first ranks/2 strips are one wider
		ragged := rng.Int63n(i1-2) + 2
		for i1%ragged == 0 {
			ragged++
		}
		ref, err := stencil.RunSequential(space.MustRect(i1, i2), stencil.Sum2D{}, positionBoundary)
		if err != nil {
			t.Fatal(err)
		}
		for _, s1 := range []int64{ragged, 1, i1} {
			for _, mode := range []Mode{Blocking, Overlapped} {
				for _, w := range inprocWorlds {
					cfg := Config2D{I1: i1, I2: i2, S1: s1, Kernel: stencil.Sum2D{}, Boundary: positionBoundary, Mode: mode}
					what := fmt.Sprintf("%dx%d on %d ranks S1=%d %v %s", i1, i2, ranks, s1, mode, w.name)
					requireBitIdentical(t, what+": block path vs sequential", gatherRun2D(t, w.launch, ranks, cfg), ref)
					cfg.Kernel = passThrough{stencil.Sum2D{}}
					requireBitIdentical(t, what+": generic path vs sequential", gatherRun2D(t, w.launch, ranks, cfg), ref)
				}
			}
		}
	}
}

// TestBlockPathOverTCP is the loopback-TCP case of the differential tests.
func TestBlockPathOverTCP(t *testing.T) {
	ref2, err := stencil.RunSequential(space.MustRect(23, 7), stencil.Sum2D{}, positionBoundary)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Blocking, Overlapped} {
		cfg := Config2D{I1: 23, I2: 7, S1: 5, Kernel: stencil.Sum2D{}, Boundary: positionBoundary, Mode: mode}
		requireBitIdentical(t, mode.String()+" 2-D: block path vs sequential", gatherRun2D(t, tcpLaunch(t), 3, cfg), ref2)
	}

	g := model.Grid3D{I: 4, J: 6, K: 23, PI: 2, PJ: 2}
	ref, err := stencil.RunSequential(space.MustRect(g.I, g.J, g.K), stencil.Sqrt3D{}, positionBoundary)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Blocking, Overlapped} {
		cfg := Config{Grid: g, V: 5, Kernel: stencil.Sqrt3D{}, Boundary: positionBoundary, Mode: mode}
		requireBitIdentical(t, mode.String()+": block path vs sequential", gatherRun(t, tcpLaunch(t), cfg), ref)
		cfg.Kernel = passThrough{stencil.Sqrt3D{}}
		requireBitIdentical(t, mode.String()+": generic path vs sequential", gatherRun(t, tcpLaunch(t), cfg), ref)
	}
}

// TestGhostLayerAddressable pins Local.At's contract on a rank with no
// neighbours: interior coordinates are the sequential grid's, and the ghost
// shell holds the boundary exactly where the dependence set reaches. For the
// 3-D unit dependences that is the three planes, their common edges and
// corner staying the zeros they were allocated as; the 2-D run has no i = −1
// plane at all, and its diagonal dependence reads the (lj, k) = (−1, −1)
// corner, so that cell is filled too.
func TestGhostLayerAddressable(t *testing.T) {
	cfg3 := Config{
		Grid: model.Grid3D{I: 2, J: 3, K: 4, PI: 1, PJ: 1}, V: 2,
		Kernel: stencil.Sqrt3D{}, Boundary: positionBoundary, Mode: Blocking,
	}
	cfg2 := Config2D{I1: 4, I2: 3, S1: 2, Kernel: stencil.Sum2D{}, Boundary: positionBoundary, Mode: Blocking}
	for _, tc := range []struct {
		name   string
		p      problem
		lowI   int64
		point  func(li, lj, k int64) ilmath.Vec
		filled func(outside int) bool // is a ghost cell outside the space in this many coordinates filled?
	}{
		{"3d", cfg3.problem(), -1, func(li, lj, k int64) ilmath.Vec { return ilmath.V(li, lj, k) }, func(n int) bool { return n == 1 }},
		{"2d", cfg2.problem(1), 0, func(li, lj, k int64) ilmath.Vec { return ilmath.V(k, lj) }, func(n int) bool { return true }},
	} {
		err := mp.Launch(1, func(c mp.Comm) error {
			l, _, err := tc.p.run(c, tc.p.space[2])
			if err != nil {
				return err
			}
			ref, err := tc.p.gather(c, l)
			if err != nil {
				return err
			}
			if diff, err := VerifySequential(ref, Config{Kernel: tc.p.kernel, Boundary: tc.p.boundary}); err != nil || diff != 0 {
				return fmt.Errorf("single-rank run differs from sequential by %v (%v)", diff, err)
			}
			for li := tc.lowI; li < l.TI; li++ {
				for lj := int64(-1); lj < l.TJ; lj++ {
					for k := int64(-1); k < l.K; k++ {
						q := tc.point(li, lj, k)
						outside := 0
						for _, x := range q {
							if x < 0 {
								outside++
							}
						}
						want := 0.0 // never read nor written
						switch {
						case outside == 0:
							want = ref.At(q)
						case tc.filled(outside):
							want = positionBoundary(q)
						}
						if got := l.at(li, lj, k); got != want {
							return fmt.Errorf("at(%d,%d,%d) = %v, want %v", li, lj, k, got, want)
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// runAllocs is the allocation count of one whole 2-rank in-process run —
// world, buffers, tile loop — through run, a front door, as
// testing.AllocsPerRun sees it (one P, so the ranks interleave the same way
// every time).
func runAllocs(t *testing.T, launch launcher, run func(mp.Comm) error) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		err := launch(2, run)
		if err != nil {
			t.Fatal(err)
		}
	})
}

// bareAllocs is what the transport alone allocates for msgs messages of
// size bytes from rank 0 to rank 1, sent and received the way mode does.
func bareAllocs(t *testing.T, launch launcher, mode Mode, msgs, size int) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		err := launch(2, func(c mp.Comm) error {
			buf := make([]byte, size)
			recv, err := c.RecvInit(0, buf)
			if err != nil {
				return err
			}
			for m := 0; m < msgs; m++ {
				var req mp.Request
				switch {
				case mode == Blocking && c.Rank() == 0:
					err = c.Send(1, m, buf)
				case mode == Blocking:
					_, err = c.Recv(0, m, buf)
				case c.Rank() == 0:
					req, err = c.Isend(1, m, buf)
				default:
					req, err = recv, recv.Start(m)
				}
				if err == nil && req != nil {
					_, err = req.Wait()
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestTileLoopAllocationFree checks the two halves of "the steady-state tile
// loop allocates nothing", through the front door that keeps the grid and
// through the one that only times the run: the count does not depend on how
// many points a tile holds, and what one more tile adds is what the
// transport allocates for that tile's one message (measured here by a bare
// loop of the same message count), not a buffer, request slice or closure
// of the runner's.
func TestTileLoopAllocationFree(t *testing.T) {
	// What the in-process transport may allocate for one face-sized message
	// that arrives before its receive is posted. Measured, the same for
	// both schedules: eager 2.00 (the envelope and the payload copy),
	// rendezvous 3.00 (+ the send's op, and the channel of whichever side
	// had to wait). Under the race detector, whose sync.Pool drops a share
	// of what is put back, the blocking schedule's pooled Recv ops read up
	// to 3.81 rendezvous; the overlapped schedule's persistent receives
	// stay at 3.00. Before those replaced its Irecv ops the overlapped
	// schedule read 3.00 eager and 4.50 rendezvous; before the mailbox
	// copied straight into posted buffers and recycled Recv's ops, 5.06
	// and 6.00.
	const transportAllocsPerMsg = 4.0
	// Scheduling on the one P can still differ by a goroutine hand-off, and
	// each costs the runtime an allocation or two; a per-point or per-tile
	// leak is hundreds.
	const slack = 4.0
	// Two ranks, one face per tile between them, k extent and tile height
	// free; each shape's run through the front door that keeps the grid
	// and through the one that only times it.
	for _, sh := range []struct {
		name      string
		run       func(k, v int64, mode Mode) [2]func(mp.Comm) error // through Run, through Time
		faceBytes func(v int64) int
	}{
		{"3d", func(k, v int64, mode Mode) [2]func(mp.Comm) error {
			cfg := Config{Grid: model.Grid3D{I: 4, J: 4, K: k, PI: 2, PJ: 1}, V: v, Kernel: stencil.Sqrt3D{}, Mode: mode}
			return [2]func(mp.Comm) error{
				func(c mp.Comm) error { _, _, err := Run(c, cfg); return err },
				func(c mp.Comm) error { _, err := Time(c, cfg); return err },
			}
		}, func(v int64) int { return int(8 * 4 * v) }},
		{"2d", func(k, v int64, mode Mode) [2]func(mp.Comm) error {
			cfg := Config2D{I1: k, I2: 8, S1: v, Kernel: stencil.Sum2D{}, Mode: mode}
			return [2]func(mp.Comm) error{
				func(c mp.Comm) error { _, _, err := Run2D(c, cfg); return err },
				func(c mp.Comm) error { _, err := Time2D(c, cfg); return err },
			}
		}, func(v int64) int { return int(8 * (v + 1)) }},
	} {
		for door, name := range []string{"Run", "Time"} {
			run := func(k, v int64, mode Mode) func(mp.Comm) error { return sh.run(k, v, mode)[door] }
			for _, w := range inprocWorlds {
				var blockingPerMsg float64
				for _, mode := range []Mode{Blocking, Overlapped} {
					const k, v, tiles = 256, 16, 16
					what := fmt.Sprintf("%s %s %s %v", sh.name, name, w.name, mode)
					allocs := runAllocs(t, w.launch, run(k, v, mode))

					// Same 16 tiles, twice the points in each.
					if got := runAllocs(t, w.launch, run(2*k, 2*v, mode)); math.Abs(got-allocs) > slack {
						t.Errorf("%s: %v allocations with V=%d, %v with V=%d at the same tile count", what, allocs, v, got, 2*v)
					}

					// Twice the tiles at the same V.
					perTile := (runAllocs(t, w.launch, run(2*k, v, mode)) - allocs) / tiles
					perMsg := (bareAllocs(t, w.launch, mode, 2*tiles, sh.faceBytes(v)) -
						bareAllocs(t, w.launch, mode, tiles, sh.faceBytes(v))) / tiles
					if perTile > perMsg+slack/tiles {
						t.Errorf("%s: a tile adds %.2f allocations, its message alone %.2f", what, perTile, perMsg)
					}
					if perMsg > transportAllocsPerMsg+slack/tiles {
						t.Errorf("%s: the transport allocates %.2f per message, ceiling %v", what, perMsg, transportAllocsPerMsg)
					}
					// ProcNB pays no more per message than ProcB.
					if mode == Blocking {
						blockingPerMsg = perMsg
					} else if perMsg > blockingPerMsg+slack/tiles {
						t.Errorf("%s: the transport allocates %.2f per message, %.2f blocking", what, perMsg, blockingPerMsg)
					}
					t.Logf("%s: %v allocations for %d tiles; +%.2f per tile, transport +%.2f per message",
						what, allocs, tiles, perTile, perMsg)
				}
			}
		}
	}
}
