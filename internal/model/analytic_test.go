package model

import (
	"math"
	"testing"
)

func TestOptimalVOverlapAnalyticNearNumericScan(t *testing.T) {
	m := PentiumCluster()
	for _, c := range fig12Experiments() {
		vA, tA, err := c.OptimalVOverlapAnalytic(m)
		if err != nil {
			t.Fatal(err)
		}
		vN, tN := c.optimalV(m, c.PredictOverlap)
		// The closed form assumes the compute-bound case, while the exact
		// discrete scan's eq.-4 max() switches to the B-side at large V and
		// pulls the optimum left along a very flat valley — so V can differ
		// by tens of percent while T stays within 10%.
		if math.Abs(vA-float64(vN))/float64(vN) > 0.45 {
			t.Errorf("%+v: analytic V* = %.0f vs numeric %d", c, vA, vN)
		}
		if math.Abs(tA-tN)/tN > 0.10 {
			t.Errorf("%+v: analytic T* = %g vs numeric %g", c, tA, tN)
		}
	}
}

func TestOptimalVBlockingAnalyticNearNumericScan(t *testing.T) {
	m := PentiumCluster()
	for _, c := range fig12Experiments() {
		vA, tA, err := c.OptimalVBlockingAnalytic(m)
		if err != nil {
			t.Fatal(err)
		}
		vN, tN := c.optimalV(m, c.PredictNonOverlap)
		if math.Abs(vA-float64(vN))/float64(vN) > 0.25 {
			t.Errorf("%+v: analytic V* = %.0f vs numeric %d", c, vA, vN)
		}
		if math.Abs(tA-tN)/tN > 0.10 {
			t.Errorf("%+v: analytic T* = %g vs numeric %g", c, tA, tN)
		}
	}
}

func TestClosedFormIsStationary(t *testing.T) {
	// T(V*) must not exceed T at nearby heights (true minimum).
	m := PentiumCluster()
	c := Grid3D{I: 16, J: 16, K: 16384, PI: 4, PJ: 4}
	a, b := overlapStepCoeffs(c, m)
	cSteps := float64(2*(c.PI-1) + 2*(c.PJ-1) + 1)
	v, err := optimalVClosedForm(float64(c.K), cSteps, a, b)
	if err != nil {
		t.Fatal(err)
	}
	T := func(x float64) float64 { return (cSteps + float64(c.K)/x) * (a + b*x) }
	for _, f := range []float64{0.5, 0.8, 1.25, 2} {
		if T(v*f) < T(v) {
			t.Errorf("T(%g·V*) = %g < T(V*) = %g", f, T(v*f), T(v))
		}
	}
}

func TestClosedFormValidation(t *testing.T) {
	if _, err := optimalVClosedForm(0, 1, 1, 1); err == nil {
		t.Error("zero K accepted")
	}
	if _, err := optimalVClosedForm(1, 1, 0, 1); err == nil {
		t.Error("zero base cost accepted")
	}
}

func TestAnalyticVGrowsWithBaseCost(t *testing.T) {
	// Higher per-message base cost pushes the optimum to taller tiles
	// (fewer, larger messages) — the V* = √(K·a/(C·b)) dependence.
	c := Grid3D{I: 16, J: 16, K: 16384, PI: 4, PJ: 4}
	m1 := PentiumCluster()
	m2 := m1
	m2.FillMPIBase *= 4
	v1, _, err := c.OptimalVOverlapAnalytic(m1)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := c.OptimalVOverlapAnalytic(m2)
	if err != nil {
		t.Fatal(err)
	}
	if v2 <= v1 {
		t.Errorf("V* did not grow with base cost: %g -> %g", v1, v2)
	}
	// And approximately like √4 = 2 when base dominates the a-term.
	if v2/v1 < 1.5 || v2/v1 > 2.5 {
		t.Errorf("V* ratio %g, want ≈2", v2/v1)
	}
}
