// Package runner executes the paper's tiled loops for real on the mp
// message-passing layer: one tile-pipeline executor, under either the blocking
// receive→compute→send scheme (ProcB) or the non-blocking overlapped scheme
// (ProcNB) of the paper's pseudocode. Run takes the Section 5 experiment (an
// I×J×K stencil on a PI×PJ grid, all k-tiles of a column on one rank), Run2D
// the Example 1 strip; both only describe their geometry to the same loop.
// Time and Time2D run the same loop for a caller that only wants the
// statistics, on a ring of one tile (at least 128 k-slots) per k-row
// instead of the whole column.
package runner
