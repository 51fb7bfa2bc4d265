package stencil

// sqrtSteady runs the steady steps of one group of Sqrt3D's grouped sweep
// (sweepSqrtGroup) in SSE2, the eight rows as four register lane pairs. At
// step s it takes the roots of last, stores them to roots[s*8:], computes
// row r's point from the west roots at roots[(s+1)*8:], the north root (row
// 0's is north[s], row r's is row r−1's new root) and its own root, and
// stores it to rows[r][s]. It runs len(north) steps; every rows[r] has that
// length and roots has len(north)+1 steps of 8. last carries the rows'
// latest values in and out.
//
//go:noescape
func sqrtSteady(rows *[sqrtGroup][]float64, north, roots []float64, last *[sqrtGroup]float64)

// sqrtRow sets dst[x] = √src[x] for every x < len(src), two at a time with
// SQRTPD; dst is at least as long as src.
//
//go:noescape
func sqrtRow(dst, src []float64)
