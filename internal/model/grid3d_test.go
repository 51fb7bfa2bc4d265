package model

// The tile-height sweep, the exhaustive optimum scan and the three Fig. 12
// spaces are the oracles the closed forms and predictions are checked
// against here; the commands plan through estimate and planapi instead.

// sweepPoint is one point of a tile-height sweep.
type sweepPoint struct {
	V          int64
	G          int64   // tile volume
	NonOverlap float64 // predicted eq. 3 time
	Overlap    float64 // predicted eq. 4 time
}

// sweep evaluates both predictions for every tile height in vs.
func (c Grid3D) sweep(vs []int64, m Machine) []sweepPoint {
	out := make([]sweepPoint, 0, len(vs))
	for _, v := range vs {
		out = append(out, sweepPoint{
			V:          v,
			G:          c.TileVolume(v),
			NonOverlap: c.PredictNonOverlap(v, m),
			Overlap:    c.PredictOverlap(v, m),
		})
	}
	return out
}

// optimalV scans tile heights 1..K and returns the height minimizing the
// given predictor together with the predicted time.
func (c Grid3D) optimalV(m Machine, predict func(v int64, m Machine) float64) (int64, float64) {
	bestV, bestT := int64(1), predict(1, m)
	for v := int64(2); v <= c.K; v++ {
		if t := predict(v, m); t < bestT {
			bestV, bestT = v, t
		}
	}
	return bestV, bestT
}

// fig12Experiments returns the three iteration spaces of the paper's
// Section 5 experiments, all on a 4×4 processor grid.
func fig12Experiments() []Grid3D {
	return []Grid3D{
		{I: 16, J: 16, K: 16384, PI: 4, PJ: 4}, // experiment i
		{I: 16, J: 16, K: 32768, PI: 4, PJ: 4}, // experiment ii
		{I: 32, J: 32, K: 4096, PI: 4, PJ: 4},  // experiment iii
	}
}
