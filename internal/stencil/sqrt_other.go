//go:build !amd64

package stencil

import "math"

// sqrtSteady runs the steady steps of one group of Sqrt3D's grouped sweep
// (sweepSqrtGroup). It is the eight-lane loop of sqrt_amd64.s written out
// in Go: at step s it takes the roots of last, stores them to roots[s*8:],
// computes row r's point from the west roots at roots[(s+1)*8:], the north
// root (row 0's is north[s], row r's is row r−1's new root) and its own
// root, and stores it to rows[r][s]. It runs len(north) steps; every
// rows[r] has that length and roots has len(north)+1 steps of 8. last
// carries the rows' latest values in and out.
func sqrtSteady(rows *[sqrtGroup][]float64, north, roots []float64, last *[sqrtGroup]float64) {
	v := *last
	for s, nv := range north {
		q := (*[sqrtGroup]float64)(roots[s*sqrtGroup:])
		for r := range q {
			q[r] = math.Sqrt(v[r])
		}
		w := (*[sqrtGroup]float64)(roots[(s+1)*sqrtGroup:])
		v[0] = w[0] + nv + q[0]
		for r := 1; r < sqrtGroup; r++ {
			v[r] = w[r] + q[r-1] + q[r]
		}
		for r := range rows {
			rows[r][s] = v[r]
		}
	}
	*last = v
}

// sqrtRow sets dst[x] = √src[x] for every x < len(src); dst is at least as
// long as src.
func sqrtRow(dst, src []float64) {
	dst = dst[:len(src)]
	for x, v := range src {
		dst[x] = math.Sqrt(v)
	}
}
