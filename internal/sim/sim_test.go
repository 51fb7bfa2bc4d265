package sim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/deps"
	"repro/internal/fault"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/topo"
)

// testMachine returns a machine with simple round numbers for hand
// verification.
func testMachine() model.Machine {
	return model.Machine{
		Tc:           1, // 1 s per point: compute dominates visibly
		Ts:           2,
		Tt:           0.001,
		BytesPerElem: 4,
		FillMPIBase:  0.5, FillMPIPerByte: 0,
		FillKernelBase: 0.25, FillKernelPerByte: 0,
	}
}

// smallGrid is a 4x4x8-point space on a 2x2 processor grid.
func smallGrid() model.Grid3D {
	return model.Grid3D{I: 4, J: 4, K: 8, PI: 2, PJ: 2}
}

func TestGridTopologyValidation(t *testing.T) {
	c, m := smallGrid(), testMachine()
	if _, err := GridConfig(c, 0, m, Blocking, CapNone); err == nil {
		t.Error("zero tile height accepted")
	}
	if _, err := GridConfig(c, 9, m, Blocking, CapNone); err == nil {
		t.Error("tile height > K accepted")
	}
	m.BytesPerElem = 0
	if _, err := GridConfig(c, 2, m, Blocking, CapNone); err == nil {
		t.Error("zero element size accepted")
	}
	if _, err := GridConfig(model.Grid3D{I: 3, J: 4, K: 8, PI: 2, PJ: 2}, 2, testMachine(), Blocking, CapNone); err == nil {
		t.Error("non-dividing processor grid accepted")
	}
}

// gridTopology is the topology GridConfig builds for c at tile height v.
func gridTopology(t *testing.T, c model.Grid3D, v int64) Topology {
	t.Helper()
	cfg, err := GridConfig(c, v, testMachine(), Blocking, CapNone)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.Topo
}

// shapeOf returns the shape index of tile tc.
func (t Topology) shapeOf(tc ilmath.Vec) int64 {
	var sh int64
	for i, x := range tc {
		if x == t.last[i] {
			sh += t.stride[i]
		}
	}
	return sh
}

// tileVolume returns the points of tile tc.
func (t Topology) tileVolume(tc ilmath.Vec) int64 { return t.vol[t.shapeOf(tc)] }

// msgBytes returns the bytes tile from ships to the processor at offset
// dir, with dimension i at bit n−1−i; 0 when it ships nothing there.
func (t Topology) msgBytes(from ilmath.Vec, dir uint64) int64 {
	for k, c := range t.cross {
		if c.dir == dir {
			return t.bytes[t.shapeOf(from)*int64(len(t.cross))+int64(k)]
		}
	}
	return 0
}

func TestGridTopologyGeometry(t *testing.T) {
	topo := gridTopology(t, smallGrid(), 2)
	if topo.ts.Volume() != 2*2*4 {
		t.Errorf("tile space volume = %d, want 16", topo.ts.Volume())
	}
	if topo.m.NumProcs() != 4 {
		t.Errorf("procs = %d, want 4", topo.m.NumProcs())
	}
	// Interior tile: 2x2x2 = 8 points.
	if g := topo.tileVolume(ilmath.V(0, 0, 0)); g != 8 {
		t.Errorf("tile volume = %d, want 8", g)
	}
	// Face bytes: j×k face = 2·2·4 = 16 bytes; i and j faces, received in
	// that order, and nothing along k, which stays on the processor.
	if bts := topo.msgBytes(ilmath.V(0, 0, 0), 0b100); bts != 16 {
		t.Errorf("i-face bytes = %d, want 16", bts)
	}
	if bts := topo.msgBytes(ilmath.V(0, 0, 0), 0b010); bts != 16 {
		t.Errorf("j-face bytes = %d, want 16", bts)
	}
	if len(topo.cross) != 2 || topo.cross[0].dir != 0b100 || topo.cross[1].dir != 0b010 {
		t.Errorf("processor offsets %+v, want the i face then the j face", topo.cross)
	}
}

func TestGridTopologyPartialLastTile(t *testing.T) {
	// K = 8, v = 3: tiles of height 3, 3, 2.
	topo := gridTopology(t, smallGrid(), 3)
	if topo.ts.Extent(2) != 3 {
		t.Fatalf("k tiles = %d, want 3", topo.ts.Extent(2))
	}
	if g := topo.tileVolume(ilmath.V(0, 0, 0)); g != 2*2*3 {
		t.Errorf("full tile volume = %d", g)
	}
	if g := topo.tileVolume(ilmath.V(0, 0, 2)); g != 2*2*2 {
		t.Errorf("partial tile volume = %d, want 8", g)
	}
	if bts := topo.msgBytes(ilmath.V(0, 0, 2), 0b100); bts != 2*2*4 {
		t.Errorf("partial i-face bytes = %d, want 16", bts)
	}
	// Total volume conserved.
	var total int64
	topo.ts.Points(func(tc ilmath.Vec) bool {
		total += topo.tileVolume(tc)
		return true
	})
	if total != 4*4*8 {
		t.Errorf("total tile volume = %d, want 128", total)
	}
}

// TestBoxTopologyValidate pins what the constructor rejects: extents and
// sides that disagree in dimension or are not positive, a mapping
// dimension out of range, a dependence that is negative or reaches past
// the neighbor tile, a missing or mismatched dependence set and a
// non-positive element size. A tile larger than the space is a valid,
// clipped, tile.
func TestBoxTopologyValidate(t *testing.T) {
	d := deps.Example1Deps()
	if _, err := BoxTopology(ilmath.V(100, 40), ilmath.V(10, 10), 0, d, 8); err != nil {
		t.Errorf("valid box rejected: %v", err)
	}
	if _, err := BoxTopology(ilmath.V(100, 40), ilmath.V(101, 10), 0, d, 8); err != nil {
		t.Errorf("tile taller than the space rejected: %v", err)
	}
	for name, c := range map[string]struct {
		ext, sides ilmath.Vec
		mapDim     int
		d          *deps.Set
		bpe        int64
	}{
		"zero extent":     {ilmath.V(0, 40), ilmath.V(10, 10), 0, d, 8},
		"zero side":       {ilmath.V(100, 40), ilmath.V(10, 0), 0, d, 8},
		"no dimensions":   {ilmath.V(), ilmath.V(), 0, d, 8},
		"sides too short": {ilmath.V(100, 40), ilmath.V(10), 0, d, 8},
		"map dim":         {ilmath.V(100, 40), ilmath.V(10, 10), 2, d, 8},
		"negative dep":    {ilmath.V(100, 40), ilmath.V(10, 10), 0, deps.MustNewSet(ilmath.V(1, -1)), 8},
		"dep too long":    {ilmath.V(100, 40), ilmath.V(10, 10), 0, deps.MustNewSet(ilmath.V(11, 0)), 8},
		"no deps":         {ilmath.V(100, 40), ilmath.V(10, 10), 0, nil, 8},
		"3-D deps":        {ilmath.V(100, 40), ilmath.V(10, 10), 0, deps.Stencil3D(), 8},
		"element size":    {ilmath.V(100, 40), ilmath.V(10, 10), 0, d, 0},
	} {
		if _, err := BoxTopology(c.ext, c.sides, c.mapDim, c.d, c.bpe); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestBoxTopologyStripGeometry is the 2-D runner's strip deployment as a
// box: 57 rows of 10-row tiles on 4 strips of 10 columns, mapped along the
// rows. The face and the diagonal's corner fold into one message of S1+1
// values, and the partial last tile of 7 rows ships 8.
func TestBoxTopologyStripGeometry(t *testing.T) {
	topo, err := BoxTopology(ilmath.V(57, 40), ilmath.V(10, 10), 0, deps.Example1Deps(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if topo.ts.Extent(0) != 6 || topo.m.NumProcs() != 4 {
		t.Errorf("tile space %v on %d processors, want 6 tiles on each of 4", topo.ts, topo.m.NumProcs())
	}
	// Full tile: 10 rows × 10 cols; partial last tile: 7 rows.
	if g := topo.tileVolume(ilmath.V(0, 0)); g != 100 {
		t.Errorf("full tile volume = %d", g)
	}
	if g := topo.tileVolume(ilmath.V(5, 0)); g != 70 {
		t.Errorf("partial tile volume = %d, want 70", g)
	}
	if len(topo.cross) != 1 {
		t.Fatalf("processor offsets %+v, want the next strip only", topo.cross)
	}
	if b := topo.msgBytes(ilmath.V(0, 0), 0b01); b != 11*8 {
		t.Errorf("face bytes = %d, want 88", b)
	}
	if b := topo.msgBytes(ilmath.V(5, 0), 0b01); b != 8*8 {
		t.Errorf("partial face bytes = %d, want 64", b)
	}
}

func TestSimulateSingleProcessorNoComm(t *testing.T) {
	// 1x1 processor grid: no messages; makespan = total compute.
	c := model.Grid3D{I: 2, J: 2, K: 4, PI: 1, PJ: 1}
	m := testMachine()
	for _, mode := range []Mode{Blocking, Overlapped} {
		r, err := SimulateGrid(c, 2, m, mode, CapDMA, GridOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if r.NumMessages != 0 {
			t.Errorf("%v: %d messages on single processor", mode, r.NumMessages)
		}
		want := float64(2*2*4) * m.Tc
		if r.Makespan != want {
			t.Errorf("%v: makespan = %g, want %g", mode, r.Makespan, want)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	cfg := Config{}
	if _, err := Simulate(cfg); err == nil {
		t.Error("empty config accepted")
	}
	good, err := GridConfig(smallGrid(), 2, testMachine(), Blocking, CapNone)
	if err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Mode = Mode(99)
	if _, err := Simulate(bad); err == nil {
		t.Error("bad mode accepted")
	}
	bad = good
	bad.Cap = Capability(99)
	if _, err := Simulate(bad); err == nil {
		t.Error("bad capability accepted")
	}
	bad = good
	bad.Machine.Tc = -1
	if _, err := Simulate(bad); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestBlockingMatchesHandComputation(t *testing.T) {
	// 1x2 processor grid (PI=1, PJ=2), K=2, v=2: one tile per processor.
	// P0 owns tile (0,0,0); P1 owns (0,1,0) and needs P0's j-face.
	// Machine: compute = 8 points ·1 s; fills: MPI 0.5 + kernel 0.25 per
	// message; wire = 16 B · 0.001 = 0.016 per side.
	// Timeline: P0 computes [0,8], send copy [8, 8.75], wire tx
	// [8.75, 8.766], wire rx [8.766, 8.782], P1 recv copy (after wire)
	// [8.782, 9.532], P1 compute [9.532, 17.532].
	c := model.Grid3D{I: 2, J: 4, K: 2, PI: 1, PJ: 2}
	m := testMachine()
	r, err := SimulateGrid(c, 2, m, Blocking, CapNone, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumMessages != 1 {
		t.Fatalf("messages = %d, want 1", r.NumMessages)
	}
	want := 8.0 + 0.75 + 0.016 + 0.016 + 0.75 + 8.0
	if !almost(r.Makespan, want) {
		t.Errorf("makespan = %g, want %g", r.Makespan, want)
	}
}

func almost(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestOverlappedPipelinesAcrossSteps(t *testing.T) {
	// Single processor pair in j, many k tiles: the overlapped schedule
	// must hide the communication behind compute, approaching
	// makespan ≈ offset + steps·computePerTile when compute dominates.
	c := model.Grid3D{I: 2, J: 4, K: 32, PI: 1, PJ: 2}
	m := testMachine()
	ov, err := SimulateGrid(c, 2, m, Overlapped, CapFullDuplex, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := SimulateGrid(c, 2, m, Blocking, CapNone, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ov.Makespan >= bl.Makespan {
		t.Errorf("overlapped %g not faster than blocking %g", ov.Makespan, bl.Makespan)
	}
	// Lower bound: one processor's pure compute work.
	minWork := float64(2 * 2 * 32) // points per processor · 1 s
	if ov.Makespan < minWork {
		t.Errorf("makespan %g below single-processor compute %g: impossible", ov.Makespan, minWork)
	}
}

func TestOverlapBeatsBlockingOnPaperGrid(t *testing.T) {
	// A scaled-down version of the paper's experiment i: overlap must win
	// and CPU utilization must rise.
	c := model.Grid3D{I: 8, J: 8, K: 256, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	v := int64(16)
	bl, err := SimulateGrid(c, v, m, Blocking, CapNone, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ov, err := SimulateGrid(c, v, m, Overlapped, CapDMA, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if ov.Makespan >= bl.Makespan {
		t.Errorf("overlapped %g >= blocking %g", ov.Makespan, bl.Makespan)
	}
	// Utilization is time-busy/makespan; blocking CPUs are "busy" doing
	// copies too, so only sanity bounds are meaningful here.
	for name, u := range map[string]float64{"overlap": ov.CPUUtilization, "blocking": bl.CPUUtilization} {
		if u <= 0 || u > 1 {
			t.Errorf("%s CPU utilization %g out of (0,1]", name, u)
		}
	}
}

func TestCapabilityOrdering(t *testing.T) {
	// More overlap capability can never hurt: none >= dma >= full-duplex
	// in makespan.
	c := model.Grid3D{I: 8, J: 8, K: 128, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	v := int64(8)
	makespan := map[Capability]float64{}
	for _, cap := range []Capability{CapNone, CapDMA, CapFullDuplex} {
		r, err := SimulateGrid(c, v, m, Overlapped, cap, GridOpts{})
		if err != nil {
			t.Fatal(err)
		}
		makespan[cap] = r.Makespan
	}
	if makespan[CapNone] < makespan[CapDMA] || makespan[CapDMA] < makespan[CapFullDuplex] {
		t.Errorf("capability ordering violated: none=%g dma=%g duplex=%g",
			makespan[CapNone], makespan[CapDMA], makespan[CapFullDuplex])
	}
}

func TestDeterministicRepeats(t *testing.T) {
	c := smallGrid()
	m := model.PentiumCluster()
	r1, err := SimulateGrid(c, 2, m, Overlapped, CapDMA, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SimulateGrid(c, 2, m, Overlapped, CapDMA, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan {
		t.Errorf("non-deterministic: %g vs %g", r1.Makespan, r2.Makespan)
	}
}

func TestMessageCountMatchesTopology(t *testing.T) {
	// 2x2 processor grid, kt tiles each: cross messages = per k-tile,
	// i-direction: 1 proc boundary × 2 j-procs; j-direction likewise.
	c := smallGrid() // 2x2 procs
	r, err := SimulateGrid(c, 2, testMachine(), Blocking, CapNone, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	kt := int64(4)
	want := int(kt * (2 + 2)) // (PI-1)*PJ + PI*(PJ-1) = 2+2 per k layer
	if r.NumMessages != want {
		t.Errorf("messages = %d, want %d", r.NumMessages, want)
	}
	if r.NumTiles != 16 {
		t.Errorf("tiles = %d, want 16", r.NumTiles)
	}
}

// TestBuildStatsShape pins the activity graph's size on a ragged grid
// (V = 3 leaves a partial last tile): one compute per tile plus k
// activities per message — send, wire-tx, wire-rx and recv under
// Blocking; A1, B3, wire-tx, wire-rx, B2 and A3 under Overlapped — and one
// more per message for the bus stage on a shared bus.
func TestBuildStatsShape(t *testing.T) {
	c := smallGrid()
	for _, v := range []int64{1, 3, 4} {
		for _, mode := range []Mode{Blocking, Overlapped} {
			for _, cp := range []Capability{CapNone, CapDMA, CapFullDuplex} {
				for _, net := range []Network{Switched, SharedBus} {
					cfg, err := gridConfig(c, v, testMachine(), mode, cp, GridOpts{Net: net})
					if err != nil {
						t.Fatal(err)
					}
					acts, msgs, err := BuildStats(cfg)
					if err != nil {
						t.Fatal(err)
					}
					kt := (c.K + v - 1) / v
					tiles := int(c.PI * c.PJ * kt)
					if want := int(kt * ((c.PI-1)*c.PJ + c.PI*(c.PJ-1))); msgs != want {
						t.Errorf("V=%d %s %s %s: messages = %d, want %d", v, mode, cp, net, msgs, want)
					}
					k := map[Mode]int{Blocking: 4, Overlapped: 6}[mode]
					if net == SharedBus {
						k++
					}
					if want := tiles + msgs*k; acts != want {
						t.Errorf("V=%d %s %s %s: activities = %d, want %d tiles + %d×%d messages = %d",
							v, mode, cp, net, acts, tiles, msgs, k, want)
					}
				}
			}
		}
	}
}

// TestWavefrontLowerBound: the makespan can never beat GridLowerBound,
// whose path term contains the compute-only critical path of the
// dependence chain. The last rank's first tile transitively depends on
// the first k-tiles of (PI-1)+(PJ-1) ranks, each a full V·TileI·TileJ
// compute, and that rank then computes its whole column of K·TileI·TileJ
// points in order. The table covers the V ladder (1, a non-divisor of K, 64, K), both
// modes, every capability and both networks, through the uncached
// reference and through a small bounded cache (a miss on a pooled engine,
// then a hit, with evictions along the way).
func TestWavefrontLowerBound(t *testing.T) {
	m := model.PentiumCluster()
	cache := NewCacheBounded(8)
	points, tightest := 0, math.Inf(1)
	for _, tc := range []struct {
		g  model.Grid3D
		vs []int64
	}{
		{model.Grid3D{I: 8, J: 8, K: 128, PI: 4, PJ: 4}, []int64{1, 3, 64, 128}},
		{model.Grid3D{I: 16, J: 8, K: 100, PI: 2, PJ: 4}, []int64{1, 7, 64, 100}},
		{model.Grid3D{I: 12, J: 12, K: 64, PI: 3, PJ: 2}, []int64{1, 5, 64}},
		{model.Grid3D{I: 64, J: 64, K: 256, PI: 2, PJ: 2}, []int64{1, 10, 64, 256}}, // compute-heavy: the bound is tight
	} {
		c := tc.g
		for _, v := range tc.vs {
			for _, mode := range []Mode{Blocking, Overlapped} {
				for _, cp := range []Capability{CapNone, CapDMA, CapFullDuplex} {
					for _, net := range []Network{Switched, SharedBus} {
						o := GridOpts{Net: net}
						lower := GridLowerBound(c, v, m, mode, cp, o)
						ref, err := SimulateGrid(c, v, m, mode, cp, o)
						if err != nil {
							t.Fatal(err)
						}
						miss, err := cache.SimulateGridCtx(context.Background(), c, v, m, mode, cp, o)
						if err != nil {
							t.Fatal(err)
						}
						hit, err := cache.SimulateGridCtx(context.Background(), c, v, m, mode, cp, o)
						if err != nil {
							t.Fatal(err)
						}
						for path, r := range map[string]Result{"reference": ref, "cache miss": miss, "cache hit": hit} {
							points++
							tightest = math.Min(tightest, r.Makespan/lower)
							if r.Makespan < lower {
								t.Errorf("%+v V=%d %v %v %v (%s): makespan %g below GridLowerBound %g",
									c, v, mode, cp, net, path, r.Makespan, lower)
							}
						}
					}
				}
			}
		}
	}
	if st := cache.Stats(); st.Hits == 0 || st.Evictions == 0 {
		t.Errorf("cache path not exercised: %+v", st)
	}
	t.Logf("%d points, tightest makespan/bound %.3f", points, tightest)
}

// TestGridLowerBound: GridLowerBound never exceeds the simulated makespan,
// on the reference and on the cache path. The matrix adds to
// TestWavefrontLowerBound's a one-row and a one-column processor grid, a
// two-level switch hierarchy beside the flat switched and shared-bus
// networks, and ten seeded random machines scaled as in the experiments
// package's randomized optimum test, so the path term and the busy-CPU
// term each dominate somewhere. An active fault plan yields no bound.
func TestGridLowerBound(t *testing.T) {
	grids := []struct {
		g  model.Grid3D
		vs []int64 // 1, a non-divisor of K, 64, K
	}{
		{model.Grid3D{I: 8, J: 8, K: 128, PI: 4, PJ: 4}, []int64{1, 3, 64, 128}},
		{model.Grid3D{I: 16, J: 8, K: 100, PI: 2, PJ: 4}, []int64{1, 7, 64, 100}},
		{model.Grid3D{I: 12, J: 12, K: 64, PI: 3, PJ: 2}, []int64{1, 5, 64}},
		{model.Grid3D{I: 64, J: 64, K: 256, PI: 2, PJ: 2}, []int64{1, 10, 64, 256}},
		{model.Grid3D{I: 4, J: 16, K: 96, PI: 1, PJ: 4}, []int64{1, 5, 64, 96}},
		{model.Grid3D{I: 16, J: 4, K: 96, PI: 4, PJ: 1}, []int64{1, 5, 64, 96}},
	}
	nets := []GridOpts{
		{Net: Switched},
		{Net: SharedBus},
		{Interconnect: topo.TwoLevel(2, 0.25, 1e-5, 1)},
	}
	rng := rand.New(rand.NewSource(42))
	machines := []model.Machine{model.PentiumCluster()}
	for i := 0; i < 10; i++ {
		m := model.PentiumCluster()
		scale := func(x float64) float64 { return x * math.Exp(2.2*rng.Float64()-1.1) }
		m.Tc = scale(m.Tc)
		m.Ts = scale(m.Ts)
		m.Tt = scale(m.Tt)
		m.FillMPIBase = scale(m.FillMPIBase)
		m.FillMPIPerByte = scale(m.FillMPIPerByte)
		m.FillKernelBase = scale(m.FillKernelBase)
		m.FillKernelPerByte = scale(m.FillKernelPerByte)
		machines = append(machines, m)
	}
	// The network does not enter the bound, so the random machines take one
	// network per point in rotation, and the points alternate between the
	// reference and the cache path: every axis is covered at a third of
	// the full cross product's DES work.
	cache := NewCacheBounded(8)
	faulted := fault.Default(7, 0.5)
	points, tightest := 0, math.Inf(1)
	for mi, m := range machines {
		for _, tc := range grids {
			for _, v := range tc.vs {
				for _, mode := range []Mode{Blocking, Overlapped} {
					for _, cp := range []Capability{CapNone, CapDMA, CapFullDuplex} {
						ns := nets
						if mi > 0 {
							k := points % len(nets)
							ns = nets[k : k+1]
						}
						for _, o := range ns {
							lower := GridLowerBound(tc.g, v, m, mode, cp, o)
							if !(lower > 0) {
								t.Fatalf("machine %d %+v V=%d %v %v %+v: no bound (%g)", mi, tc.g, v, mode, cp, o, lower)
							}
							path, r, err := "reference", Result{}, error(nil)
							if points%2 == 0 {
								r, err = SimulateGrid(tc.g, v, m, mode, cp, o)
							} else {
								path = "cache"
								r, err = cache.SimulateGridCtx(context.Background(), tc.g, v, m, mode, cp, o)
							}
							if err != nil {
								t.Fatal(err)
							}
							points++
							tightest = math.Min(tightest, r.Makespan/lower)
							if r.Makespan < lower {
								t.Errorf("machine %d %+v V=%d %v %v %+v (%s): makespan %g below GridLowerBound %g",
									mi, tc.g, v, mode, cp, o, path, r.Makespan, lower)
							}
							fo := o
							fo.Fault = faulted
							if lb := GridLowerBound(tc.g, v, m, mode, cp, fo); lb != 0 {
								t.Errorf("%+v V=%d under %v: bound %g, want 0", tc.g, v, faulted, lb)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d points, tightest makespan/bound %.6f", points, tightest)
}

// TestGridLowerBoundAllocFree: the bound runs on every certified cache hit
// (the walk prices the incumbent's unprobed neighbors) and on every exact
// tier rung, so it must allocate nothing, in either mode.
func TestGridLowerBoundAllocFree(t *testing.T) {
	g := model.Grid3D{I: 64, J: 64, K: 4096, PI: 8, PJ: 8}
	m := model.PentiumCluster()
	for _, mode := range []Mode{Blocking, Overlapped} {
		var lb float64
		if allocs := testing.AllocsPerRun(100, func() {
			lb = GridLowerBound(g, 100, m, mode, CapNone, GridOpts{})
		}); allocs != 0 || !(lb > 0) {
			t.Errorf("%s: %v allocations per call (bound %g), want 0", mode, allocs, lb)
		}
	}
}

// TestGenericTopology2D drives Simulate with a 2-D box tiling (the
// Example 1 shape) whose dependences include a diagonal, checking the
// builder handles non-axis deps and 2-D mappings: the diagonal folds into
// the face message, so every tile sends one message to the next strip.
func TestGenericTopology2D(t *testing.T) {
	topo, err := BoxTopology(ilmath.V(60, 30), ilmath.V(10, 10), 0, deps.Example1Deps(), 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topo:    topo,
		Machine: model.Example1Machine(),
		Mode:    Overlapped,
		Cap:     CapDMA,
	}
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumTiles != 18 {
		t.Errorf("tiles = %d, want 18", r.NumTiles)
	}
	// One message per tile and strip boundary: 6·2 = 12. The (1,0) deps
	// are intra-processor and the (1,1) corner rides in the (0,1) face.
	if r.NumMessages != 12 {
		t.Errorf("messages = %d, want 12", r.NumMessages)
	}
	if r.Makespan <= 0 {
		t.Error("non-positive makespan")
	}
	// Also runs under blocking mode without deadlock.
	cfg.Mode = Blocking
	if _, err := Simulate(cfg); err != nil {
		t.Errorf("blocking with diagonal deps: %v", err)
	}
}

func TestTraceProducesEntries(t *testing.T) {
	cfg, err := GridConfig(smallGrid(), 2, testMachine(), Overlapped, CapDMA)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = true
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Trace) == 0 {
		t.Error("no trace entries despite Trace=true")
	}
	// Trace must include compute, isend, irecv, wire and kcopy activities.
	kinds := map[string]bool{}
	for _, e := range r.Trace {
		for _, k := range []string{"compute", "isend", "irecv", "wire", "kcopy"} {
			if len(e.Label) >= len(k) && e.Label[:len(k)] == k {
				kinds[k] = true
			}
		}
	}
	for _, k := range []string{"compute", "isend", "irecv", "wire", "kcopy"} {
		if !kinds[k] {
			t.Errorf("trace missing %q activities", k)
		}
	}
}

func TestModeCapabilityStrings(t *testing.T) {
	if Blocking.String() != "blocking" || Overlapped.String() != "overlapped" {
		t.Error("mode strings wrong")
	}
	if CapNone.String() != "no-dma" || CapDMA.String() != "dma" || CapFullDuplex.String() != "full-duplex" {
		t.Error("capability strings wrong")
	}
	if Mode(9).String() == "" || Capability(9).String() == "" {
		t.Error("unknown enum strings empty")
	}
}

func TestSharedBusSlowerOrEqual(t *testing.T) {
	// Bus contention can only hurt: shared-bus makespan >= switched, for
	// both schedules.
	c := model.Grid3D{I: 8, J: 8, K: 128, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	for _, mode := range []Mode{Blocking, Overlapped} {
		sw, err := SimulateGrid(c, 8, m, mode, CapDMA, GridOpts{Net: Switched})
		if err != nil {
			t.Fatal(err)
		}
		sb, err := SimulateGrid(c, 8, m, mode, CapDMA, GridOpts{Net: SharedBus})
		if err != nil {
			t.Fatal(err)
		}
		if sb.Makespan < sw.Makespan {
			t.Errorf("%v: shared bus %g faster than switched %g", mode, sb.Makespan, sw.Makespan)
		}
	}
}

func TestSharedBusSingleMessageExtraStage(t *testing.T) {
	// With a single message in flight the bus adds exactly one extra wire
	// stage (the medium arbitration) to the end-to-end path.
	c := model.Grid3D{I: 2, J: 4, K: 2, PI: 1, PJ: 2}
	m := testMachine()
	sw, err := SimulateGrid(c, 2, m, Blocking, CapNone, GridOpts{Net: Switched})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := SimulateGrid(c, 2, m, Blocking, CapNone, GridOpts{Net: SharedBus})
	if err != nil {
		t.Fatal(err)
	}
	if diff := sb.Makespan - sw.Makespan; !almost(diff, m.Wire(16)) {
		t.Errorf("bus - switched = %g, want one wire stage %g", diff, m.Wire(16))
	}
}

func TestSharedBusErodesOverlapGain(t *testing.T) {
	// With many processors contending for one medium, the overlapping
	// schedule's relative advantage shrinks versus the switched network.
	c := model.Grid3D{I: 16, J: 16, K: 256, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	m.Tt *= 10 // a slow shared medium (the paper's 10 Mbps Ethernet era)
	v := int64(16)
	gain := func(net Network) float64 {
		ov, err := SimulateGrid(c, v, m, Overlapped, CapDMA, GridOpts{Net: net})
		if err != nil {
			t.Fatal(err)
		}
		bl, err := SimulateGrid(c, v, m, Blocking, CapNone, GridOpts{Net: net})
		if err != nil {
			t.Fatal(err)
		}
		return 1 - ov.Makespan/bl.Makespan
	}
	if gSwitched, gBus := gain(Switched), gain(SharedBus); gBus >= gSwitched {
		t.Errorf("bus gain %.2f not below switched gain %.2f", gBus, gSwitched)
	}
}

func TestNetworkValidation(t *testing.T) {
	cfg, err := GridConfig(smallGrid(), 2, testMachine(), Blocking, CapNone)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Network = Network(9)
	if _, err := Simulate(cfg); err == nil {
		t.Error("bad network model accepted")
	}
	if Switched.String() != "switched" || SharedBus.String() != "shared-bus" {
		t.Error("network strings wrong")
	}
	if Network(9).String() == "" {
		t.Error("unknown network string empty")
	}
}

func TestCritPathPopulatedWithTrace(t *testing.T) {
	cfg, err := GridConfig(smallGrid(), 2, testMachine(), Overlapped, CapDMA)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = true
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CritPath) == 0 {
		t.Fatal("no critical path despite Trace=true")
	}
	if last := r.CritPath[len(r.CritPath)-1]; last.End != r.Makespan {
		t.Errorf("critical path ends at %g, makespan %g", last.End, r.Makespan)
	}
	// Without trace, no critical path is extracted.
	cfg.Trace = false
	r, err = Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.CritPath != nil {
		t.Error("critical path populated without Trace")
	}
}

func TestNodeSpeedValidation(t *testing.T) {
	cfg, err := GridConfig(smallGrid(), 2, testMachine(), Blocking, CapNone)
	if err != nil {
		t.Fatal(err)
	}
	for _, speed := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg.NodeSpeed = func(rank int64) float64 { return speed }
		if _, err := Simulate(cfg); err == nil {
			t.Errorf("node speed %g accepted", speed)
		}
	}
}

func TestStragglerSlowsCluster(t *testing.T) {
	// One node at half speed: the wavefront pipeline must slow down, and
	// by less than 2x (only that node's work is slower).
	c := model.Grid3D{I: 8, J: 8, K: 128, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	base, err := SimulateGrid(c, 8, m, Overlapped, CapDMA, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := GridConfig(c, 8, m, Overlapped, CapDMA)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NodeSpeed = func(rank int64) float64 {
		if rank == 5 {
			return 0.5
		}
		return 1
	}
	slow, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Makespan <= base.Makespan {
		t.Errorf("straggler did not slow the cluster: %g vs %g", slow.Makespan, base.Makespan)
	}
	if slow.Makespan >= 2*base.Makespan {
		t.Errorf("one straggler doubled the makespan: %g vs %g", slow.Makespan, base.Makespan)
	}
}

func TestUniformSpeedScalesComputeBoundRun(t *testing.T) {
	// All nodes at half speed in a compute-bound setting: makespan scales
	// by close to 2x (communication stages are unscaled, so slightly less
	// on the comm-influenced parts).
	c := model.Grid3D{I: 8, J: 8, K: 128, PI: 4, PJ: 4}
	m := testMachine() // compute dominates strongly (1 s per point)
	base, err := SimulateGrid(c, 8, m, Overlapped, CapDMA, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := GridConfig(c, 8, m, Overlapped, CapDMA)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NodeSpeed = func(int64) float64 { return 0.5 }
	slow, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := slow.Makespan / base.Makespan
	if ratio < 1.9 || ratio > 2.05 {
		t.Errorf("uniform half speed ratio = %g, want ≈2", ratio)
	}
}
