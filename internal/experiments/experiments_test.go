package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/sim"
)

// tinySweep is a scaled-down sweep that runs in milliseconds.
func tinySweep() Sweep {
	g := model.Grid3D{I: 8, J: 8, K: 256, PI: 4, PJ: 4}
	return Sweep{
		ID: "tiny", Title: "tiny space",
		Grid: g, Heights: Ladder(4, 64),
		Machine: model.PentiumCluster(), Cap: sim.CapDMA,
	}
}

func TestLadder(t *testing.T) {
	vs := Ladder(4, 64)
	want := []int64{4, 8, 16, 32, 64}
	if len(vs) != len(want) {
		t.Fatalf("ladder = %v", vs)
	}
	for i := range want {
		if vs[i] != want[i] {
			t.Errorf("ladder[%d] = %d", i, vs[i])
		}
	}
}

func TestRefine(t *testing.T) {
	vs := Refine(100, 1, 1000, 11)
	if len(vs) < 5 {
		t.Fatalf("refine too sparse: %v", vs)
	}
	for i := 1; i < len(vs); i++ {
		if vs[i] <= vs[i-1] {
			t.Errorf("refine not strictly sorted: %v", vs)
		}
	}
	if vs[0] < 50 || vs[len(vs)-1] > 150 {
		t.Errorf("refine range wrong: %v", vs)
	}
	// Clamping.
	vs = Refine(2, 1, 1000, 5)
	if vs[0] < 1 {
		t.Errorf("refine below lo: %v", vs)
	}
}

func TestSweepRun(t *testing.T) {
	s := tinySweep()
	rows, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(s.Heights) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.OverlapSim <= 0 || r.BlockingSim <= 0 || r.OverlapModel <= 0 || r.BlockingModel <= 0 {
			t.Errorf("non-positive time in row %+v", r)
		}
		if r.OverlapSim >= r.BlockingSim {
			t.Errorf("V=%d: overlap %g not faster than blocking %g", r.V, r.OverlapSim, r.BlockingSim)
		}
		if r.G != s.Grid.TileVolume(r.V) {
			t.Errorf("V=%d: G=%d", r.V, r.G)
		}
	}
}

func TestSweepOptimumInterior(t *testing.T) {
	s := tinySweep()
	out, err := s.OptimumDetailCtx(context.Background(), sim.Overlapped)
	if err != nil {
		t.Fatal(err)
	}
	vOpt, tOpt := out.V, out.T
	if vOpt <= s.Heights[0] || vOpt >= s.Grid.K {
		t.Errorf("optimum V=%d not interior", vOpt)
	}
	// The optimum must beat the ladder endpoints.
	rows, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if tOpt > rows[0].OverlapSim || tOpt > rows[len(rows)-1].OverlapSim {
		t.Errorf("optimum %g worse than sweep endpoints", tOpt)
	}
}

func TestFormat(t *testing.T) {
	s := tinySweep()
	rows, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := Format(s, rows)
	if !strings.Contains(out, "tiny space") || !strings.Contains(out, "overlap(sim)") {
		t.Errorf("format missing headers:\n%s", out)
	}
	if strings.Count(out, "\n") != len(rows)+2 {
		t.Errorf("unexpected line count:\n%s", out)
	}
}

func TestFigureDefinitions(t *testing.T) {
	for _, s := range []Sweep{Fig9(), Fig10(), Fig11()} {
		if err := s.Grid.Validate(); err != nil {
			t.Errorf("%s: %v", s.ID, err)
		}
		if s.Grid.PI*s.Grid.PJ != 16 {
			t.Errorf("%s: not 16 processors", s.ID)
		}
		if len(s.Heights) == 0 {
			t.Errorf("%s: no heights", s.ID)
		}
	}
	if Fig9().Grid.K != 16384 || Fig10().Grid.K != 32768 || Fig11().Grid.K != 4096 {
		t.Error("figure spaces wrong")
	}
}

func TestPaperFig12Reference(t *testing.T) {
	rows := PaperFig12()
	if len(rows) != 3 {
		t.Fatal("want 3 paper rows")
	}
	if rows[0].VOpt != 444 || rows[1].VOpt != 538 || rows[2].VOpt != 164 {
		t.Error("paper V_opt values wrong")
	}
	if rows[0].ImprovementPct != 38 {
		t.Error("paper improvement wrong")
	}
}

func TestExamplesText(t *testing.T) {
	out, err := Examples(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Example 1", "Example 3", "400036", "0.4 s", "Improvement"} {
		if !strings.Contains(out, want) {
			t.Errorf("examples output missing %q:\n%s", want, out)
		}
	}
}

func TestCapabilityAblation(t *testing.T) {
	a := CapabilityAblation{
		Grid:    model.Grid3D{I: 8, J: 8, K: 128, PI: 4, PJ: 4},
		V:       8,
		Machine: model.PentiumCluster(),
	}
	r, err := a.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Monotone in capability: no-DMA >= DMA >= full-duplex. (Blocking vs
	// overlapped-without-DMA can go either way: the overlapped schedule
	// has a longer pipeline skew, and without DMA it only hides wire time
	// — which is the paper's motivation for DMA support in Section 4.)
	if !(r.NoDMA >= r.DMA && r.DMA >= r.FullDuplex) {
		t.Errorf("capability ordering violated: %+v", r)
	}
	// With a DMA engine the overlapped schedule must beat blocking.
	if r.DMA >= r.Blocking {
		t.Errorf("overlap+DMA %g not faster than blocking %g", r.DMA, r.Blocking)
	}
	out := FormatCapability(a, r)
	if !strings.Contains(out, "full-duplex") || !strings.Contains(out, "% of blocking") {
		t.Errorf("format wrong:\n%s", out)
	}
}

func TestMappingAblation(t *testing.T) {
	a := MappingAblation{
		SpaceSizes: []int64{8, 8, 128},
		TileSides:  ilmath.V(4, 4, 8),
		Machine:    model.PentiumCluster(),
	}
	rows, err := a.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// The largest-dimension mapping (dim 2) must give the shortest
	// overlapped schedule length P — the UET-UCT optimality the paper
	// invokes — while using the fewest processors (tiles along the mapped
	// dimension share a processor, so mapping the longest dimension needs
	// the least hardware).
	if !(rows[2].P < rows[0].P && rows[2].P < rows[1].P) {
		t.Errorf("largest-dim mapping not P-optimal: %+v", rows)
	}
	if !(rows[2].Procs < rows[0].Procs && rows[2].Procs < rows[1].Procs) {
		t.Errorf("largest-dim mapping not processor-minimal: %+v", rows)
	}
	// With far fewer processors it must stay within 1.5x of the makespan
	// the processor-hungry mappings achieve.
	worst := rows[0].Overlap
	if rows[1].Overlap > worst {
		worst = rows[1].Overlap
	}
	if rows[2].Overlap > 1.5*worst {
		t.Errorf("largest-dim mapping makespan %g not competitive: %+v", rows[2].Overlap, rows)
	}
	out := FormatMapping(a, rows)
	if !strings.Contains(out, "*map dim 2") {
		t.Errorf("format does not mark the paper's choice:\n%s", out)
	}
}

func TestNetworkAblation(t *testing.T) {
	a := NetworkAblation{
		Grid:    model.Grid3D{I: 8, J: 8, K: 128, PI: 4, PJ: 4},
		V:       8,
		Machine: model.PentiumCluster(),
	}
	r, err := a.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The bus can only slow things down.
	if r.BlockingSharedBus < r.BlockingSwitched || r.OverlapSharedBus < r.OverlapSwitched {
		t.Errorf("shared bus faster than switched: %+v", r)
	}
	// Overlap still wins in both networks at this traffic level.
	if r.OverlapSwitched >= r.BlockingSwitched {
		t.Error("overlap lost on switched network")
	}
	out := FormatNetwork(a, r)
	if !strings.Contains(out, "shared-bus") || !strings.Contains(out, "switched") {
		t.Errorf("format wrong:\n%s", out)
	}
}

func TestCSVExport(t *testing.T) {
	s := tinySweep()
	rows, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("csv has %d lines, want %d", len(lines), len(rows)+1)
	}
	if !strings.HasPrefix(lines[0], "v,g,overlap_sim_s") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "4,") {
		t.Errorf("first row = %q", lines[1])
	}
}

func TestCheckShape(t *testing.T) {
	// A ladder spanning the full height range so the optimum is interior.
	s := tinySweep()
	s.Grid.K = 1024
	s.Heights = Ladder(4, s.Grid.K)
	rows, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckShape(rows)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("shape check failed on the reference sweep: %+v", rep)
	}
	if rep.ImprovementPct < 10 {
		t.Errorf("improvement %.1f%% too small", rep.ImprovementPct)
	}
	if _, err := CheckShape(rows[:2]); err == nil {
		t.Error("short sweep accepted")
	}
	// A fabricated monotone sweep must fail the U-shape check.
	fake := []SweepRow{
		{V: 1, OverlapSim: 3, BlockingSim: 4},
		{V: 2, OverlapSim: 2, BlockingSim: 3},
		{V: 4, OverlapSim: 1, BlockingSim: 2},
	}
	rep, err = CheckShape(fake)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UShapedOverlap || rep.UShapedBlocking {
		t.Error("monotone sweep reported U-shaped")
	}
}

func TestStragglerAblation(t *testing.T) {
	a := StragglerAblation{
		Grid:      model.Grid3D{I: 8, J: 8, K: 128, PI: 4, PJ: 4},
		V:         8,
		Machine:   model.PentiumCluster(),
		Straggler: 5,
		Slowdowns: []float64{1.0, 0.5},
	}
	rows, err := a.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Speed 1.0 row: no slowdown.
	if rows[0].BlockingSlowdown != 1 || rows[0].OverlapSlowdown != 1 {
		t.Errorf("unit speed slowed down: %+v", rows[0])
	}
	// Half speed: both slower but less than 2x.
	if rows[1].BlockingSlowdown <= 1 || rows[1].OverlapSlowdown <= 1 {
		t.Errorf("straggler did not slow: %+v", rows[1])
	}
	if rows[1].BlockingSlowdown >= 2 || rows[1].OverlapSlowdown >= 2 {
		t.Errorf("one straggler doubled makespan: %+v", rows[1])
	}
	out := FormatStraggler(a, rows)
	if !strings.Contains(out, "slow node = rank 5") {
		t.Errorf("format wrong:\n%s", out)
	}
}

// TestStragglerRankOutsideGrid: a straggler rank that names no processor
// is rejected instead of reporting an unharmed 1.00x for both schedules.
func TestStragglerRankOutsideGrid(t *testing.T) {
	for _, rank := range []int64{-1, 4, 99} {
		a := StragglerAblation{
			Grid:      model.Grid3D{I: 8, J: 8, K: 128, PI: 2, PJ: 2},
			V:         8,
			Machine:   model.PentiumCluster(),
			Straggler: rank,
			Slowdowns: []float64{0.25},
		}
		if rows, err := a.RunCtx(context.Background()); err == nil {
			t.Errorf("straggler rank %d on a 2x2 grid accepted: %+v", rank, rows)
		}
	}
}

func TestFig12PipelineScaled(t *testing.T) {
	s := tinySweep()
	s.Grid.K = 1024
	s.Heights = Ladder(4, s.Grid.K/2)
	rows, err := Fig12For(context.Background(), []Sweep{s})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.Space != "8x8x1024" {
		t.Errorf("space = %q", r.Space)
	}
	if r.VOpt <= 0 || r.GOpt != 4*r.VOpt {
		t.Errorf("optimum geometry wrong: %+v", r)
	}
	if r.TOptOverlap >= r.TOptBlocking {
		t.Errorf("overlap optimum %g not below blocking %g", r.TOptOverlap, r.TOptBlocking)
	}
	if r.ImprovementPct <= 0 || r.ImprovementPct >= 60 {
		t.Errorf("improvement %.1f%% implausible", r.ImprovementPct)
	}
	if r.DiffPct < 0 || r.DiffPct > 50 {
		t.Errorf("theory/exp diff %.1f%% implausible", r.DiffPct)
	}
	if r.P != s.Grid.POverlap(r.VOpt) {
		t.Errorf("P = %d inconsistent with V_opt", r.P)
	}
}
