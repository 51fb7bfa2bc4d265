package model

import (
	"fmt"
	"math"
)

// The closed-form tile-height optimum for the Grid3D experiments.
//
// With affine buffer-fill costs, one interior processor's step cost is an
// affine function of the tile height V, and the schedule length is
// P(V) ≈ C + K/V, so the total
//
//	T(V) = (C + K/V)·(a + b·V) = C·a + C·b·V + K·a/V + K·b
//
// is minimized at V* = √(K·a / (C·b)) — the continuous analogue of the
// paper's "obtain the optimal overall time when T'(g) = 0" (Section 4).
// The paper lacks analytic forms for A_i(g), B_i(g) and falls back to
// experimental values; the affine machine model closes that gap, which is
// exactly the future work its Conclusions call for.

// overlapStepCoeffs returns (a, b) such that the compute-bound overlapped
// step cost is a + b·V for an interior processor of c.
func overlapStepCoeffs(c Grid3D, m Machine) (a, b float64) {
	// Two sends and two receives per step: 4 MPI buffer fills on the CPU.
	a = 4 * m.FillMPIBase
	perByteBytes := 2 * float64(c.TileI()+c.TileJ()) * float64(m.BytesPerElem) // sent+received bytes per unit V
	b = perByteBytes*m.FillMPIPerByte + float64(c.TileI()*c.TileJ())*m.Tc
	return a, b
}

// blockingStepCoeffs returns (a, b) such that the blocking step cost is
// a + b·V for an interior processor of c.
func blockingStepCoeffs(c Grid3D, m Machine) (a, b float64) {
	a = 4 * (m.FillMPIBase + m.FillKernelBase)
	perByteBytes := 2 * float64(c.TileI()+c.TileJ()) * float64(m.BytesPerElem)
	wireBytes := float64(c.TileI()+c.TileJ()) * float64(m.BytesPerElem) // sends counted once
	b = perByteBytes*(m.FillMPIPerByte+m.FillKernelPerByte) +
		wireBytes*m.Tt +
		float64(c.TileI()*c.TileJ())*m.Tc
	return a, b
}

// optimalVClosedForm minimizes (C + K/V)(a + bV).
func optimalVClosedForm(k, cSteps, a, b float64) (float64, error) {
	if a <= 0 || b <= 0 || k <= 0 || cSteps <= 0 {
		return 0, fmt.Errorf("model: non-positive closed-form inputs (a=%g b=%g K=%g C=%g)", a, b, k, cSteps)
	}
	return math.Sqrt(k * a / (cSteps * b)), nil
}

// OptimalVOverlapAnalytic returns the closed-form optimal tile height and
// the predicted completion time for the overlapped schedule, assuming the
// compute-bound case (eq. 5). Use Grid3D.OptimalV for the exact discrete
// optimum; the closed form shows where it comes from.
func (c Grid3D) OptimalVOverlapAnalytic(m Machine) (vOpt float64, tOpt float64, err error) {
	a, b := overlapStepCoeffs(c, m)
	cSteps := float64(2*(c.PI-1) + 2*(c.PJ-1) + 1)
	v, err := optimalVClosedForm(float64(c.K), cSteps, a, b)
	if err != nil {
		return 0, 0, err
	}
	t := (cSteps + float64(c.K)/v) * (a + b*v)
	return v, t, nil
}

// OptimalVBlockingAnalytic is the blocking-schedule analogue.
func (c Grid3D) OptimalVBlockingAnalytic(m Machine) (vOpt float64, tOpt float64, err error) {
	a, b := blockingStepCoeffs(c, m)
	cSteps := float64((c.PI - 1) + (c.PJ - 1) + 1)
	v, err := optimalVClosedForm(float64(c.K), cSteps, a, b)
	if err != nil {
		return 0, 0, err
	}
	t := (cSteps + float64(c.K)/v) * (a + b*v)
	return v, t, nil
}
