package model

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestMachineValidate(t *testing.T) {
	good := Example1Machine()
	if err := good.Validate(); err != nil {
		t.Errorf("Example1Machine invalid: %v", err)
	}
	if err := PentiumCluster().Validate(); err != nil {
		t.Errorf("PentiumCluster invalid: %v", err)
	}
	bad := good
	bad.Tc = 0
	if bad.Validate() == nil {
		t.Error("zero Tc accepted")
	}
	bad = good
	bad.Ts = -1
	if bad.Validate() == nil {
		t.Error("negative Ts accepted")
	}
	bad = good
	bad.BytesPerElem = 0
	if bad.Validate() == nil {
		t.Error("zero BytesPerElem accepted")
	}
	bad = good
	bad.FillMPIPerByte = -1
	if bad.Validate() == nil {
		t.Error("negative fill accepted")
	}
}

func TestFillFunctions(t *testing.T) {
	m := Machine{
		Tc: 1, Ts: 1, Tt: 2, BytesPerElem: 4,
		FillMPIBase: 10, FillMPIPerByte: 1,
		FillKernelBase: 5, FillKernelPerByte: 0.5,
	}
	if m.FillMPI(100) != 110 {
		t.Errorf("FillMPI = %g", m.FillMPI(100))
	}
	if m.FillKernel(100) != 55 {
		t.Errorf("FillKernel = %g", m.FillKernel(100))
	}
	if m.Wire(100) != 200 {
		t.Errorf("Wire = %g", m.Wire(100))
	}
}

func TestStepShapeTotals(t *testing.T) {
	s := StepShape{ComputePoints: 10, SendBytes: []int64{3, 4}, RecvBytes: []int64{5}}
	if s.TotalSendBytes() != 7 || s.TotalRecvBytes() != 5 {
		t.Error("byte totals wrong")
	}
}

func TestNonOverlappedStepExample1Arithmetic(t *testing.T) {
	// Paper Example 1: step = 2·t_s + b·V_comm·t_t + g·t_c
	//                       = 200·t_c + 64·t_c + 100·t_c = 364·t_c.
	m := Example1Machine()
	s := StepShape{ComputePoints: 100, SendBytes: []int64{80}, RecvBytes: []int64{80}}
	got := m.NonOverlappedStep(s) / m.Tc
	if !almostEq(got, 364, 1e-9) {
		t.Errorf("step = %g·t_c, want 364·t_c", got)
	}
}

func TestOverlappedStepPartsExample3(t *testing.T) {
	// Example 3: A = 50 + 100 + 50 = 200·t_c; B = 50 + 50 + 2·(80·0.8) = 228·t_c
	// (one 80-byte message each way; our accounting counts both wire
	// directions, B1 and B4).
	m := Example1Machine()
	s := StepShape{ComputePoints: 100, SendBytes: []int64{80}, RecvBytes: []int64{80}}
	cpu, comm := m.OverlappedStepParts(s)
	if !almostEq(cpu/m.Tc, 200, 1e-9) {
		t.Errorf("cpu side = %g·t_c, want 200·t_c", cpu/m.Tc)
	}
	if !almostEq(comm/m.Tc, 228, 1e-9) {
		t.Errorf("comm side = %g·t_c, want 228·t_c", comm/m.Tc)
	}
	if m.OverlappedStep(s) != comm {
		t.Error("OverlappedStep should take the max side")
	}
	if m.ComputeBound(s) {
		t.Error("this shape is wire-bound, not compute-bound")
	}
}

func TestComputeBoundLargeTile(t *testing.T) {
	m := Example1Machine()
	// Huge tile: compute dominates.
	s := StepShape{ComputePoints: 100000, SendBytes: []int64{80}, RecvBytes: []int64{80}}
	if !m.ComputeBound(s) {
		t.Error("large tile should be compute-bound")
	}
}

func TestTotals(t *testing.T) {
	m := Example1Machine()
	s := StepShape{ComputePoints: 100, SendBytes: []int64{80}, RecvBytes: []int64{80}}
	if got := m.TotalNonOverlapped(10, s); !almostEq(got, 10*m.NonOverlappedStep(s), 1e-12) {
		t.Error("TotalNonOverlapped != P·step")
	}
	if got := m.TotalOverlapped(10, s); !almostEq(got, 10*m.OverlappedStep(s), 1e-12) {
		t.Error("TotalOverlapped != P·step")
	}
}

func TestHodzicShangOptimalG(t *testing.T) {
	m := Example1Machine()
	if g := m.HodzicShangOptimalG(1); !almostEq(g, 100, 1e-12) {
		t.Errorf("g = %g, want 100 (Example 1)", g)
	}
	if g := m.HodzicShangOptimalG(2); !almostEq(g, 200, 1e-12) {
		t.Errorf("g = %g, want 200", g)
	}
}

func TestOptimalGEq5(t *testing.T) {
	m := Example1Machine()
	// n = 2, F = 100·t_c ⟹ g_opt = 100.
	g, err := m.OptimalGEq5(2, 100*m.Tc)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(g, 100, 1e-12) {
		t.Errorf("g_opt = %g, want 100", g)
	}
	// n = 3 halves it.
	g3, _ := m.OptimalGEq5(3, 100*m.Tc)
	if !almostEq(g3, 50, 1e-12) {
		t.Errorf("g_opt(n=3) = %g, want 50", g3)
	}
	if _, err := m.OptimalGEq5(1, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := m.OptimalGEq5(2, 0); err == nil {
		t.Error("zero fill accepted")
	}
}

// TestOptimalGEq5IsMinimum verifies the closed form against a numeric scan
// of T(g) = P₀·g^{−1/n}·(F + g·t_c).
func TestOptimalGEq5IsMinimum(t *testing.T) {
	m := Example1Machine()
	n := 2
	fill := 100 * m.Tc
	gOpt, err := m.OptimalGEq5(n, fill)
	if err != nil {
		t.Fatal(err)
	}
	T := func(g float64) float64 {
		return math.Pow(g, -1/float64(n)) * (fill + g*m.Tc)
	}
	tOpt := T(gOpt)
	for _, g := range []float64{gOpt / 4, gOpt / 2, gOpt * 2, gOpt * 4} {
		if T(g) < tOpt {
			t.Errorf("T(%g) = %g < T(g_opt) = %g", g, T(g), tOpt)
		}
	}
}

func TestGrid3DValidate(t *testing.T) {
	good := Grid3D{I: 16, J: 16, K: 16384, PI: 4, PJ: 4}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	if (Grid3D{I: 15, J: 16, K: 10, PI: 4, PJ: 4}).Validate() == nil {
		t.Error("non-dividing grid accepted")
	}
	if (Grid3D{I: 0, J: 16, K: 10, PI: 4, PJ: 4}).Validate() == nil {
		t.Error("zero extent accepted")
	}
}

func TestGrid3DGeometry(t *testing.T) {
	c := Grid3D{I: 16, J: 16, K: 16384, PI: 4, PJ: 4}
	if c.TileI() != 4 || c.TileJ() != 4 {
		t.Error("tile footprint wrong")
	}
	if c.KTiles(444) != 37 { // ceil(16384/444) = 37
		t.Errorf("KTiles = %d, want 37", c.KTiles(444))
	}
	if c.TileVolume(444) != 7104 {
		t.Errorf("TileVolume = %d, want 7104 (paper g_optimal)", c.TileVolume(444))
	}
	if c.FaceBytesI(444, 4) != 7104 {
		t.Errorf("FaceBytesI = %d, want 7104 (paper packet size)", c.FaceBytesI(444, 4))
	}
}

func TestGrid3DScheduleLengths(t *testing.T) {
	c := Grid3D{I: 16, J: 16, K: 16384, PI: 4, PJ: 4}
	// Exact: 2·3 + 2·3 + 37 = 49; paper's approximation: 8+8+36.9 ≈ 52.9.
	if p := c.POverlap(444); p != 49 {
		t.Errorf("POverlap = %d, want 49", p)
	}
	if p := c.PPaperOverlap(444); math.Abs(p-52.9) > 0.1 {
		t.Errorf("PPaperOverlap = %g, want ≈52.9 (paper rounds to 53)", p)
	}
	if p := c.PNonOverlap(444); p != 43 {
		t.Errorf("PNonOverlap = %d, want 43", p)
	}
}

func TestGrid3DPredictOverlapBeatsNonOverlapAtOptimum(t *testing.T) {
	m := PentiumCluster()
	for _, c := range fig12Experiments() {
		vOv, tOv := c.optimalV(m, c.PredictOverlap)
		vNo, tNo := c.optimalV(m, c.PredictNonOverlap)
		if tOv >= tNo {
			t.Errorf("%+v: overlap optimum %g (V=%d) not better than non-overlap %g (V=%d)",
				c, tOv, vOv, tNo, vNo)
		}
		imp := 1 - tOv/tNo
		if imp < 0.10 || imp > 0.60 {
			t.Errorf("%+v: improvement %.0f%% outside plausible band (paper: 32-38%%)", c, imp*100)
		}
	}
}

func TestGrid3DSweepUShape(t *testing.T) {
	// The time-vs-V curve must be U-shaped: the optimum is interior, with
	// strictly worse times at the extremes.
	m := PentiumCluster()
	c := Grid3D{I: 16, J: 16, K: 16384, PI: 4, PJ: 4}
	vOpt, tOpt := c.optimalV(m, c.PredictOverlap)
	if vOpt <= 4 {
		t.Errorf("optimal V = %d suspiciously small", vOpt)
	}
	if vOpt >= c.K/4 {
		t.Errorf("optimal V = %d suspiciously large", vOpt)
	}
	if c.PredictOverlap(4, m) <= tOpt || c.PredictOverlap(c.K/4, m) <= tOpt {
		t.Error("extremes of sweep not worse than optimum: curve not U-shaped")
	}
}

func TestGrid3DSweep(t *testing.T) {
	m := PentiumCluster()
	c := Grid3D{I: 16, J: 16, K: 1024, PI: 4, PJ: 4}
	pts := c.sweep([]int64{4, 16, 64, 256}, m)
	if len(pts) != 4 {
		t.Fatalf("Sweep returned %d points", len(pts))
	}
	for _, p := range pts {
		if p.G != 16*p.V {
			t.Errorf("G = %d for V = %d", p.G, p.V)
		}
		if p.Overlap <= 0 || p.NonOverlap <= 0 {
			t.Error("non-positive prediction")
		}
	}
}

func TestFig12ExperimentsValid(t *testing.T) {
	exps := fig12Experiments()
	if len(exps) != 3 {
		t.Fatalf("want 3 experiments")
	}
	for _, c := range exps {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v invalid: %v", c, err)
		}
		if c.PI*c.PJ != 16 {
			t.Errorf("%+v does not use 16 processors", c)
		}
	}
}
