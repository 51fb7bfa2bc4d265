// Package repro reproduces "Minimizing Completion Time for Loop Tiling with
// Computation and Communication Overlapping" (Goumas, Sotiropoulos, Koziris;
// IPPS 2001) as a Go library.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory and README.md for the package-dependency overview); runnable
// entry points are under cmd/; the benchmarks in
// bench_test.go regenerate every figure and table of the paper's
// evaluation (see EXPERIMENTS.md for paper-vs-measured results, and
// OBSERVABILITY.md for the metrics, trace-export, and live-instrumentation
// layer that ties the two execution substrates together).
package repro
