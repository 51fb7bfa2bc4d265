package runner

import (
	"math"
	"net"
	"sync"
	"testing"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/stencil"
)

// runAll executes cfg on a fresh in-process world and returns rank 0's
// gathered grid plus per-rank stats.
func runAll(t *testing.T, cfg Config) (*stencil.Grid, []Stats) {
	t.Helper()
	n := int(cfg.Grid.PI * cfg.Grid.PJ)
	stats := make([]Stats, n)
	var grid *stencil.Grid
	var mu sync.Mutex
	err := mp.Launch(n, func(c mp.Comm) error {
		l, st, err := Run(c, cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		stats[c.Rank()] = st
		mu.Unlock()
		g, err := Gather(c, cfg, l)
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

func baseConfig(mode Mode) Config {
	return Config{
		Grid:   model.Grid3D{I: 8, J: 8, K: 32, PI: 2, PJ: 2},
		V:      4,
		Kernel: stencil.Sqrt3D{},
		Mode:   mode,
	}
}

func TestValidate(t *testing.T) {
	cfg := baseConfig(Blocking)
	if err := cfg.Validate(4); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := cfg.Validate(3); err == nil {
		t.Error("wrong communicator size accepted")
	}
	bad := cfg
	bad.V = 0
	if err := bad.Validate(4); err == nil {
		t.Error("zero V accepted")
	}
	bad = cfg
	bad.V = 33
	if err := bad.Validate(4); err == nil {
		t.Error("V > K accepted")
	}
	bad = cfg
	bad.Kernel = nil
	if err := bad.Validate(4); err == nil {
		t.Error("nil kernel accepted")
	}
	bad = cfg
	bad.Kernel = stencil.Sum2D{}
	if err := bad.Validate(4); err == nil {
		t.Error("2-D kernel accepted")
	}
	bad = cfg
	bad.Mode = Mode(7)
	if err := bad.Validate(4); err == nil {
		t.Error("bad mode accepted")
	}
	w, _ := stencil.NewWeighted("diag", stencil.Sum2D{}.Deps(), []float64{1, 1, 1}, false)
	_ = w // 2-D kernel covered above; diagonal 3-D below
}

// TestValidateBoundsTileCount: tile tags are 2t+dir and must stay below
// gatherTag, the last user tag (mp.UserTagLimit, where the collectives'
// reserved tags begin, is one further). Taking that tag for the gather costs
// one tile: the most a rank may have is mp.UserTagLimit/2 − 1, and one tile
// more is rejected by both front doors.
func TestValidateBoundsTileCount(t *testing.T) {
	const most = mp.UserTagLimit/2 - 1
	cfg := Config{Grid: model.Grid3D{I: 1, J: 1, K: most, PI: 1, PJ: 1}, V: 1, Kernel: stencil.Sqrt3D{}}
	cfg2 := Config2D{I1: most, I2: 1, S1: 1, Kernel: stencil.Sum2D{}}
	if err := cfg.Validate(1); err != nil {
		t.Errorf("3-D: %d tiles rejected: %v", most, err)
	}
	if err := cfg2.Validate(1); err != nil {
		t.Errorf("2-D: %d tiles rejected: %v", most, err)
	}
	if got := tileTag(most-1, dirNorth); got >= gatherTag {
		t.Errorf("last tile's tag = %d, reaches the gather's %d", got, gatherTag)
	}
	if tileTag(most, dirNorth) < gatherTag {
		t.Errorf("one tile more would still fit below the gather's tag: the bound is not tight")
	}
	cfg.Grid.K++
	cfg2.I1++
	if cfg.Validate(1) == nil || cfg2.Validate(1) == nil {
		t.Errorf("%d tiles accepted: tags would reach the gather's tag", most+1)
	}
}

// TestDependenceRule: what the ghost exchange carries is a rule over the
// dependence set, not a list per shape. A dependence may cross to one
// neighbour and step along k at once — the faces then carry the row below the
// tile, as Example 1's do — but not cross both i and j, whose common edge no
// face holds.
func TestDependenceRule(t *testing.T) {
	d := deps.MustNewSet(ilmath.V(1, 0, 0), ilmath.V(0, 1, 0), ilmath.V(0, 0, 1), ilmath.V(1, 0, 1), ilmath.V(0, 1, 1))
	w, err := stencil.NewWeighted("skew3", d, []float64{0.25, 0.5, 0.125, 0.0625, 0.03125}, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Blocking, Overlapped} {
		cfg := Config{Grid: model.Grid3D{I: 4, J: 6, K: 11, PI: 2, PJ: 2}, V: 3, Kernel: w, Boundary: positionBoundary, Mode: mode}
		grid, stats := runAll(t, cfg)
		if diff, err := VerifySequential(grid, cfg); err != nil || diff != 0 {
			t.Errorf("%v: skewed 3-D dependences differ from sequential by %g (%v)", mode, diff, err)
		}
		// Rank 0 sends two faces per tile, each one row taller than the tile.
		if want := int64(8*(2*(3+1)+3*(3+1))*3 + 8*(2*(2+1)+3*(2+1))); stats[0].BytesSent != want {
			t.Errorf("%v: rank 0 sent %d bytes, want %d", mode, stats[0].BytesSent, want)
		}
	}
	edge, err := stencil.NewWeighted("edge", deps.MustNewSet(ilmath.V(1, 1, 0), ilmath.V(0, 0, 1)), []float64{1, 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(Blocking)
	cfg.Kernel = edge
	if cfg.Validate(4) == nil {
		t.Error("a dependence across both i and j accepted")
	}
}

func TestBlockingMatchesSequential(t *testing.T) {
	cfg := baseConfig(Blocking)
	grid, stats := runAll(t, cfg)
	diff, err := VerifySequential(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("blocking run differs from sequential by %g", diff)
	}
	// Every rank executed all its tiles.
	for r, st := range stats {
		if st.Tiles != 8 {
			t.Errorf("rank %d executed %d tiles, want 8", r, st.Tiles)
		}
	}
}

func TestOverlappedMatchesSequential(t *testing.T) {
	cfg := baseConfig(Overlapped)
	grid, _ := runAll(t, cfg)
	diff, err := VerifySequential(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("overlapped run differs from sequential by %g", diff)
	}
}

func TestModesAgreeExactly(t *testing.T) {
	a, _ := runAll(t, baseConfig(Blocking))
	b, _ := runAll(t, baseConfig(Overlapped))
	diff, err := stencil.MaxAbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("modes disagree by %g", diff)
	}
}

func TestPartialLastTile(t *testing.T) {
	for _, mode := range []Mode{Blocking, Overlapped} {
		cfg := baseConfig(mode)
		cfg.V = 5 // 32 = 5·6 + 2: partial last tile of height 2
		grid, stats := runAll(t, cfg)
		diff, err := VerifySequential(grid, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff != 0 {
			t.Errorf("%v with partial tile differs by %g", mode, diff)
		}
		for r, st := range stats {
			if st.Tiles != 7 {
				t.Errorf("%v rank %d executed %d tiles, want 7", mode, r, st.Tiles)
			}
		}
	}
}

func TestVEqualsK(t *testing.T) {
	// One tile per processor: communication collapses to a single exchange.
	for _, mode := range []Mode{Blocking, Overlapped} {
		cfg := baseConfig(mode)
		cfg.V = 32
		grid, stats := runAll(t, cfg)
		diff, err := VerifySequential(grid, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff != 0 {
			t.Errorf("%v V=K differs by %g", mode, diff)
		}
		// Interior/edge ranks: rank 0 (pi=0,pj=0) sends east+south = 2.
		if stats[0].MsgsSent != 2 {
			t.Errorf("%v rank 0 sent %d msgs, want 2", mode, stats[0].MsgsSent)
		}
		// Rank 3 (pi=1,pj=1) receives west+north = 2, sends none.
		if stats[3].MsgsSent != 0 || stats[3].MsgsRecvd != 2 {
			t.Errorf("%v rank 3 sent/recvd %d/%d, want 0/2", mode, stats[3].MsgsSent, stats[3].MsgsRecvd)
		}
	}
}

func TestVEquals1(t *testing.T) {
	// Finest tiling: maximal message count, still exact.
	cfg := baseConfig(Overlapped)
	cfg.V = 1
	grid, stats := runAll(t, cfg)
	diff, err := VerifySequential(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("V=1 differs by %g", diff)
	}
	if stats[0].MsgsSent != 64 { // 32 tiles × 2 neighbors
		t.Errorf("rank 0 sent %d msgs, want 64", stats[0].MsgsSent)
	}
}

func TestSingleProcessor(t *testing.T) {
	cfg := Config{
		Grid:   model.Grid3D{I: 4, J: 4, K: 16, PI: 1, PJ: 1},
		V:      4,
		Kernel: stencil.Sqrt3D{},
		Mode:   Overlapped,
	}
	grid, stats := runAll(t, cfg)
	diff, err := VerifySequential(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("single-proc differs by %g", diff)
	}
	if stats[0].MsgsSent != 0 || stats[0].MsgsRecvd != 0 {
		t.Error("single processor exchanged messages")
	}
}

func TestRowAndColumnGrids(t *testing.T) {
	// Degenerate processor grids: 1×4 and 4×1.
	for _, g := range []model.Grid3D{
		{I: 4, J: 8, K: 16, PI: 1, PJ: 4},
		{I: 8, J: 4, K: 16, PI: 4, PJ: 1},
	} {
		for _, mode := range []Mode{Blocking, Overlapped} {
			cfg := Config{Grid: g, V: 4, Kernel: stencil.Sqrt3D{}, Mode: mode}
			grid, _ := runAll(t, cfg)
			diff, err := VerifySequential(grid, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if diff != 0 {
				t.Errorf("%v on %+v differs by %g", mode, g, diff)
			}
		}
	}
}

func TestCustomBoundaryAndKernel(t *testing.T) {
	w, err := stencil.NewWeighted("lin3", stencil.Sqrt3D{}.Deps(), []float64{0.25, 0.5, 0.125}, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Grid:     model.Grid3D{I: 6, J: 6, K: 12, PI: 3, PJ: 2},
		V:        3,
		Kernel:   w,
		Boundary: stencil.ConstBoundary(2),
		Mode:     Overlapped,
	}
	grid, _ := runAll(t, cfg)
	diff, err := VerifySequential(grid, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-12 {
		t.Errorf("weighted kernel differs by %g", diff)
	}
}

func TestBytesSentAccounting(t *testing.T) {
	cfg := baseConfig(Blocking)
	_, stats := runAll(t, cfg)
	// Rank 0: east face = TJ·K values, south face = TI·K values, 8 B each.
	want := int64(8 * (4*32 + 4*32))
	if stats[0].BytesSent != want {
		t.Errorf("rank 0 sent %d bytes, want %d", stats[0].BytesSent, want)
	}
}

func TestStatsElapsedPositive(t *testing.T) {
	_, stats := runAll(t, baseConfig(Overlapped))
	for r, st := range stats {
		if st.Elapsed <= 0 {
			t.Errorf("rank %d elapsed %v", r, st.Elapsed)
		}
	}
}

func TestValuesAreFinite(t *testing.T) {
	grid, _ := runAll(t, baseConfig(Overlapped))
	for i, v := range grid.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite value at %d: %g", i, v)
		}
	}
}

func TestModeString(t *testing.T) {
	if Blocking.String() != "blocking" || Overlapped.String() != "overlapped" {
		t.Error("mode strings wrong")
	}
}

// TestTCPTransportEndToEnd runs the full stencil over the TCP transport,
// proving the runner is transport-agnostic.
func TestTCPTransportEndToEnd(t *testing.T) {
	cfg := Config{
		Grid:   model.Grid3D{I: 4, J: 4, K: 8, PI: 2, PJ: 2},
		V:      2,
		Kernel: stencil.Sqrt3D{},
		Mode:   Overlapped,
	}
	diff, err := VerifySequential(gatherRun(t, tcpLaunch(t), cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("TCP run differs from sequential by %g", diff)
	}
}

// freeAddrs reserves n distinct loopback ports by listening and closing.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestOverlappedUnderRendezvous runs ProcNB on a fabric where EVERY send is
// synchronous (completes only when the receiver matches) — the adversarial
// transport for overlap schedules. The pre-posted receives of the
// overlapped discipline must keep the pipeline deadlock-free and the result
// exact. ProcB is included too: its strictly ordered recv→compute→send
// triplets also never cycle.
func TestOverlappedUnderRendezvous(t *testing.T) {
	cfg := baseConfig(Overlapped)
	for _, mode := range []Mode{Blocking, Overlapped} {
		cfg.Mode = mode
		diff, err := VerifySequential(gatherRun(t, rendezvousLaunch, cfg), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff != 0 {
			t.Errorf("%v under rendezvous differs by %g", mode, diff)
		}
	}
}
