package runner

import (
	"sync"
	"testing"

	"repro/internal/mp"
	"repro/internal/stencil"
)

// runAll2D executes cfg on n in-process ranks, returning rank 0's gathered
// grid and per-rank stats.
func runAll2D(t *testing.T, n int, cfg Config2D) (*stencil.Grid, []Stats) {
	t.Helper()
	stats := make([]Stats, n)
	var grid *stencil.Grid
	var mu sync.Mutex
	err := mp.Launch(n, func(c mp.Comm) error {
		l, st, err := Run2D(c, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		stats[c.Rank()] = st
		mu.Unlock()
		g, err := Gather2D(c, cfg, l)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			mu.Lock()
			grid = g
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return grid, stats
}

// runAll2DGrid is runAll2D for callers that only want the grid.
func runAll2DGrid(t *testing.T, n int, cfg Config2D) *stencil.Grid {
	t.Helper()
	grid, _ := runAll2D(t, n, cfg)
	return grid
}

// tiles2D is the number of tiles each rank of cfg executes.
func tiles2D(cfg Config2D) int64 { return cfg.problem(1).tiles() }

func base2D(mode Mode) Config2D {
	return Config2D{I1: 60, I2: 40, S1: 10, Kernel: stencil.Sum2D{}, Mode: mode}
}

func TestRun2DValidate(t *testing.T) {
	cfg := base2D(Blocking)
	if err := cfg.Validate(4); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := cfg
	bad.S1 = 0
	if bad.Validate(4) == nil {
		t.Error("zero S1 accepted")
	}
	bad = cfg
	bad.S1 = 100
	if bad.Validate(4) == nil {
		t.Error("S1 > I1 accepted")
	}
	bad = cfg
	bad.Kernel = stencil.Sqrt3D{}
	if bad.Validate(4) == nil {
		t.Error("3-D kernel accepted")
	}
	bad = cfg
	bad.Kernel = nil
	if bad.Validate(4) == nil {
		t.Error("nil kernel accepted")
	}
	if cfg.Validate(0) == nil {
		t.Error("zero ranks accepted")
	}
	if cfg.Validate(41) == nil {
		t.Error("more ranks than columns accepted")
	}
	bad = cfg
	bad.Mode = Mode(9)
	if bad.Validate(4) == nil {
		t.Error("bad mode accepted")
	}
}

func TestRun2DBlockingMatchesSequential(t *testing.T) {
	cfg := base2D(Blocking)
	grid, stats := runAll2D(t, 4, cfg)
	diff, err := VerifySequential2D(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("blocking 2-D run differs from sequential by %g", diff)
	}
	// 6 local tiles per rank; ranks 0..2 send, ranks 1..3 receive.
	if stats[0].Tiles != 6 || stats[0].MsgsSent != 6 || stats[0].MsgsRecvd != 0 {
		t.Errorf("rank 0 stats wrong: %+v", stats[0])
	}
	if stats[3].MsgsSent != 0 || stats[3].MsgsRecvd != 6 {
		t.Errorf("rank 3 stats wrong: %+v", stats[3])
	}
}

func TestRun2DOverlappedMatchesSequential(t *testing.T) {
	cfg := base2D(Overlapped)
	grid, _ := runAll2D(t, 4, cfg)
	diff, err := VerifySequential2D(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("overlapped 2-D run differs from sequential by %g", diff)
	}
}

func TestRun2DModesAgree(t *testing.T) {
	a, _ := runAll2D(t, 5, base2D(Blocking))
	b, _ := runAll2D(t, 5, base2D(Overlapped))
	diff, err := stencil.MaxAbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("modes disagree by %g", diff)
	}
}

func TestRun2DPartialTilesAndStrips(t *testing.T) {
	// I1 = 57 with S1 = 10: 6 tiles, the last of height 7.
	// I2 = 43 on 4 ranks: strips of 11, 11, 11, 10.
	for _, mode := range []Mode{Blocking, Overlapped} {
		cfg := Config2D{I1: 57, I2: 43, S1: 10, Kernel: stencil.Sum2D{}, Mode: mode}
		grid, stats := runAll2D(t, 4, cfg)
		diff, err := VerifySequential2D(grid, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff != 0 {
			t.Errorf("%v with partial tiles differs by %g", mode, diff)
		}
		for r, st := range stats {
			if st.Tiles != 6 {
				t.Errorf("%v rank %d executed %d tiles", mode, r, st.Tiles)
			}
		}
	}
}

func TestRun2DSingleRank(t *testing.T) {
	cfg := base2D(Overlapped)
	grid, stats := runAll2D(t, 1, cfg)
	diff, err := VerifySequential2D(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("single-rank differs by %g", diff)
	}
	if stats[0].MsgsSent != 0 || stats[0].MsgsRecvd != 0 {
		t.Error("single rank exchanged messages")
	}
}

func TestRun2DCustomBoundary(t *testing.T) {
	cfg := base2D(Overlapped)
	cfg.Boundary = stencil.ConstBoundary(2.5)
	grid, _ := runAll2D(t, 4, cfg)
	diff, err := VerifySequential2D(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("custom boundary differs by %g", diff)
	}
}

func TestRun2DNoDiagonalKernel(t *testing.T) {
	// A kernel without the diagonal dependence also works (the corner slot
	// is shipped but unused).
	w, err := stencil.NewWeighted("plain2", stencil.Sum2D{}.Deps(), []float64{0.5, 0.25, 0.25}, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config2D{I1: 40, I2: 30, S1: 8, Kernel: w, Mode: Overlapped}
	grid, _ := runAll2D(t, 3, cfg)
	diff, err := VerifySequential2D(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-12 {
		t.Errorf("weighted kernel differs by %g", diff)
	}
}

func TestRun2DExample1Shape(t *testing.T) {
	// A scaled version of the paper's Example 1 (10000x1000 with 10x10
	// tiles): 400x100 over 10 ranks, S1 = 10.
	for _, mode := range []Mode{Blocking, Overlapped} {
		cfg := Config2D{I1: 400, I2: 100, S1: 10, Kernel: stencil.Sum2D{}, Mode: mode}
		grid, stats := runAll2D(t, 10, cfg)
		diff, err := VerifySequential2D(grid, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff != 0 {
			t.Errorf("%v Example-1 shape differs by %g", mode, diff)
		}
		// 40 tiles per rank, message length S1+1 values.
		if stats[0].Tiles != 40 {
			t.Errorf("rank 0 tiles = %d", stats[0].Tiles)
		}
		if stats[0].BytesSent != 40*8*11 {
			t.Errorf("rank 0 sent %d bytes, want %d", stats[0].BytesSent, 40*8*11)
		}
	}
}

func TestRun2DS1EqualsI1(t *testing.T) {
	// One tile per rank: the pipeline degenerates to a single wavefront.
	cfg := Config2D{I1: 20, I2: 24, S1: 20, Kernel: stencil.Sum2D{}, Mode: Overlapped}
	grid, stats := runAll2D(t, 4, cfg)
	diff, err := VerifySequential2D(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("S1=I1 differs by %g", diff)
	}
	if stats[0].Tiles != 1 {
		t.Errorf("tiles = %d", stats[0].Tiles)
	}
}

// TestRun2DUnderRendezvous: the 2-D executor is likewise deadlock-free and
// exact when every send is synchronous.
func TestRun2DUnderRendezvous(t *testing.T) {
	for _, mode := range []Mode{Blocking, Overlapped} {
		cfg := base2D(mode)
		var grid *stencil.Grid
		var mu sync.Mutex
		err := mp.LaunchOpts(4, mp.WorldOptions{RendezvousThreshold: 0}, func(c mp.Comm) error {
			l, _, err := Run2D(c, cfg)
			if err != nil {
				return err
			}
			g, err := Gather2D(c, cfg, l)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				mu.Lock()
				grid = g
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%v 2-D under rendezvous: %v", mode, err)
		}
		diff, err := VerifySequential2D(grid, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff != 0 {
			t.Errorf("%v 2-D under rendezvous differs by %g", mode, diff)
		}
	}
}
