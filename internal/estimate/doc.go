// Package estimate implements the tiered optimum-tile-height search: an
// analytical fast path over the eq. 3/4 cost models with a certified
// fallback to the exact discrete-event sweep.
//
// The exact optimum search simulates every rung of the height ladder that
// a closed-form lower bound cannot rule out — still several DES runs per
// query. This package answers the same query with a handful of targeted
// probes:
//
//	tier 1 (analytic): the closed-form V* = √(K·a/(C·b)) seeds a bracket
//	  of two adjacent ladder rungs around the predicted optimum.
//	tier 2 (probe): the bracket rungs are simulated; from the better one a
//	  neighbor walk descends the ladder. Unprobed neighbors whose
//	  calibrated model prediction exceeds the incumbent by a safety margin
//	  are elided without simulating, and so are those a closed-form lower
//	  bound (Config.Bound; sim.GridLowerBound under ForGrid) proves no
//	  better while the model prices them within the raw tolerance of
//	  that bound; the rest are probed. The model guard keeps a neighbor
//	  the model misprices in the probed set, where certification sees it.
//	tier 3 (certify): the analytic predictions at every probed rung are
//	  compared against their DES results — both raw and after a one-ratio
//	  geometric-mean calibration. If either disagreement exceeds its
//	  tolerance, or the search hit a degenerate case (tied bracket, no
//	  usable seed), the result is discarded and
//	tier 4 (exact): the exact search runs instead, so answers are
//	  always the exact ladder argmin.
//
// Certification assumes the DES makespan curve is unimodal over the
// ladder, which is what the paper's T(g) = P(g)·(A1+A2+A3) analysis
// predicts; the tolerance checks exist to catch the configurations where
// the model (and therefore the unimodality argument) stops describing the
// simulator, and route them to the exact tier.
package estimate
