// Package stencil defines the computation kernels used by the paper and a
// sequential reference executor used to verify distributed runs.
//
// A kernel is a single assignment statement with uniform dependences,
// Section 2.1: A(j) = E(A(j−d_1), …, A(j−d_m)). Reads that fall outside the
// iteration space take a caller-supplied boundary value.
//
// Sqrt3D and Sum2D also sweep a whole box at a time (Block3D), bit for bit
// what Eval returns. Sqrt3D's sweep takes each square root once: it runs
// eight rows together, skewed one point apart along k, so a row's own root
// is the next row's north operand and every root is kept as the next
// plane's west operand. On amd64 the steps where all eight rows compute
// run in SSE2 assembly (sqrt_amd64.s), two rows to a register; elsewhere
// the same eight-lane loop runs in Go (sqrt_other.go). DESIGN.md §3.1 gives
// the layout and why the packed sums equal Eval's.
package stencil
