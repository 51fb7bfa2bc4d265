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
	return 1 + float64((j[0]+2)*3%7) + float64((j[1]+2)*5%11)/4 + float64((j[2]+2)%13)/16
}

// TestBlockPathMatchesGenericAndSequential is the differential test behind
// the block fast path: over seeded random geometries the grid computed from
// stencil.Sqrt3D{} (block path), from the same kernel behind a pass-through
// decorator (per-point path) and by stencil.RunSequential are identical bit
// for bit — in both modes, on eager and on pure-rendezvous in-process
// worlds, with tile heights that do not divide K, V = 1 and V = K, and a
// boundary that depends on position.
func TestBlockPathMatchesGenericAndSequential(t *testing.T) {
	if _, ok := stencil.Kernel(stencil.Sqrt3D{}).(stencil.Block3D); !ok {
		t.Fatal("stencil.Sqrt3D does not offer the block path")
	}
	if _, ok := stencil.Kernel(passThrough{stencil.Sqrt3D{}}).(stencil.Block3D); ok {
		t.Fatal("an embedding decorator exposes the block path; the generic path would go untested")
	}
	rng := rand.New(rand.NewSource(14))
	for _, procs := range [][2]int64{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 2}} {
		pi, pj := procs[0], procs[1]
		g := model.Grid3D{I: pi * (rng.Int63n(3) + 1), J: pj * (rng.Int63n(3) + 1), K: rng.Int63n(30) + 5, PI: pi, PJ: pj}
		ragged := rng.Int63n(g.K-2) + 2 // in [2, K)
		for g.K%ragged == 0 {
			ragged++ // K−1 never divides K ≥ 5, so this stops below K
		}
		ref, err := stencil.RunSequential(space.MustRect(g.I, g.J, g.K), stencil.Sqrt3D{}, positionBoundary)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []int64{ragged, 1, g.K} {
			for _, mode := range []Mode{Blocking, Overlapped} {
				for _, w := range inprocWorlds {
					cfg := Config{Grid: g, V: v, Kernel: stencil.Sqrt3D{}, Boundary: positionBoundary, Mode: mode}
					what := fmt.Sprintf("%dx%dx%d on %dx%d V=%d %v %s", g.I, g.J, g.K, pi, pj, v, mode, w.name)
					requireBitIdentical(t, what+": block path vs sequential", gatherRun(t, w.launch, cfg), ref)
					cfg.Kernel = passThrough{stencil.Sqrt3D{}}
					requireBitIdentical(t, what+": generic path vs sequential", gatherRun(t, w.launch, cfg), ref)
				}
			}
		}
	}
}

// TestBlockPathOverTCP is the loopback-TCP case of the differential test.
func TestBlockPathOverTCP(t *testing.T) {
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

// TestGhostLayerAddressable pins Local.At's contract after the k = −1 layer
// was added: interior coordinates are unchanged, and the three ghost planes
// hold the boundary on a rank with no neighbours.
func TestGhostLayerAddressable(t *testing.T) {
	cfg := Config{
		Grid: model.Grid3D{I: 2, J: 3, K: 4, PI: 1, PJ: 1}, V: 2,
		Kernel: stencil.Sqrt3D{}, Boundary: positionBoundary, Mode: Blocking,
	}
	err := mp.Launch(1, func(c mp.Comm) error {
		l, _, err := Run(c, cfg)
		if err != nil {
			return err
		}
		ref, err := stencil.RunSequential(space.MustRect(2, 3, 4), cfg.Kernel, cfg.Boundary)
		if err != nil {
			return err
		}
		for li := int64(-1); li < l.TI; li++ {
			for lj := int64(-1); lj < l.TJ; lj++ {
				for k := int64(-1); k < l.K; k++ {
					q := ilmath.V(li, lj, k)
					outside := 0
					for _, x := range q {
						if x < 0 {
							outside++
						}
					}
					want := 0.0 // edges and the corner of the ghost layer are never read nor written
					switch outside {
					case 0:
						want = ref.At(q)
					case 1:
						want = positionBoundary(q)
					}
					if got := l.At(li, lj, k); got != want {
						return fmt.Errorf("At(%d,%d,%d) = %v, want %v", li, lj, k, got, want)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runAllocs is the allocation count of one whole 2-rank in-process run of
// cfg — world, buffers, tile loop — as testing.AllocsPerRun sees it (one P,
// so the ranks interleave the same way every time).
func runAllocs(t *testing.T, launch launcher, cfg Config) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		err := launch(2, func(c mp.Comm) error {
			_, _, err := Run(c, cfg)
			return err
		})
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
			for m := 0; m < msgs; m++ {
				var req mp.Request
				var err error
				switch {
				case mode == Blocking && c.Rank() == 0:
					err = c.Send(1, m, buf)
				case mode == Blocking:
					_, err = c.Recv(0, m, buf)
				case c.Rank() == 0:
					req, err = c.Isend(1, m, buf)
				default:
					req, err = c.Irecv(0, m, buf)
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
// loop allocates nothing": the count does not depend on how many points a
// tile holds, and what one more tile adds is what the transport allocates
// for that tile's one message (measured here by a bare loop of the same
// message count), not a buffer, request slice or closure of the runner's.
func TestTileLoopAllocationFree(t *testing.T) {
	// What the in-process transport may allocate for one 512-byte message
	// that arrives before its receive is posted. Measured: eager 2.00
	// blocking (envelope, payload copy) and 3.00 overlapped (+ the Irecv's
	// op); rendezvous 3.00 and 4.50 (+ the send's op and the channel of
	// whichever side had to wait). Before the mailbox copied straight into
	// posted buffers and recycled Recv's ops these were 5.06 and 6.00.
	const transportAllocsPerMsg = 4.5
	// Scheduling on the one P can still differ by a goroutine hand-off, and
	// each costs the runtime an allocation or two; a per-point or per-tile
	// leak is hundreds.
	const slack = 4
	base := Config{Grid: model.Grid3D{I: 4, J: 4, K: 256, PI: 2, PJ: 1}, V: 16, Kernel: stencil.Sqrt3D{}}
	for _, w := range inprocWorlds {
		for _, mode := range []Mode{Blocking, Overlapped} {
			cfg := base
			cfg.Mode = mode
			tiles := int(cfg.Grid.KTiles(cfg.V))
			allocs := runAllocs(t, w.launch, cfg)

			taller := cfg // same 16 tiles, twice the points in each
			taller.Grid.K, taller.V = 2*cfg.Grid.K, 2*cfg.V
			if got := runAllocs(t, w.launch, taller); math.Abs(got-allocs) > slack {
				t.Errorf("%s %v: %v allocations with V=%d, %v with V=%d at the same tile count",
					w.name, mode, allocs, cfg.V, got, taller.V)
			}

			longer := cfg // twice the tiles at the same V
			longer.Grid.K = 2 * cfg.Grid.K
			faceBytes := int(8 * cfg.Grid.TileJ() * cfg.V)
			perTile := (runAllocs(t, w.launch, longer) - allocs) / float64(tiles)
			perMsg := (bareAllocs(t, w.launch, mode, 2*tiles, faceBytes) -
				bareAllocs(t, w.launch, mode, tiles, faceBytes)) / float64(tiles)
			if perTile > perMsg+float64(slack)/float64(tiles) {
				t.Errorf("%s %v: a tile adds %.2f allocations, its message alone %.2f", w.name, mode, perTile, perMsg)
			}
			if perMsg > transportAllocsPerMsg+float64(slack)/float64(tiles) {
				t.Errorf("%s %v: the transport allocates %.2f per message, ceiling %v", w.name, mode, perMsg, transportAllocsPerMsg)
			}
			t.Logf("%s %v: %v allocations for %d tiles; +%.2f per tile, transport +%.2f per message",
				w.name, mode, allocs, tiles, perTile, perMsg)
		}
	}
}
