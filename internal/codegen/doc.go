// Package codegen emits the tiled loop nests the transformation implies —
// the sequential 2n-deep tiled nest and the paper's SPMD pseudocode
// variants ProcB (blocking, Section 5) and ProcNB (non-blocking/overlapped)
// — and provides an execution-order checker proving that a box tiling is a
// legal reordering of the original loop nest: TiledOrder and WavefrontOrder
// walk the tiles of tiling.TileSpace and the points of each tile's
// TileIterations box, and CheckOrder replays an order against the
// dependences.
package codegen
