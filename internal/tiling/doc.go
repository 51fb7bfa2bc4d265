// Package tiling implements the supernode (tiling) transformation of
// Section 2.3 of the paper for rectangular tiles, the shape the paper
// evaluates.
//
// A tiling is the box of positive integer side lengths s = (s_1, …, s_n);
// its tiling matrix is H = diag(1/s_1, …, 1/s_n) and P = H⁻¹ = diag(s).
// The transformation maps
//
//	r(j) = ( ⌊j/s⌋ , j − s·⌊j/s⌋ )   (componentwise)
//
// where ⌊j/s⌋ = ⌊Hj⌋ are the coordinates of the tile containing j and the
// second component is the offset of j within that tile. All of it is
// integer floor division; no rational arithmetic is needed.
//
// Legality (Irigoin–Triolet / Ramanujam–Sadayappan): HD ≥ 0 keeps tiles
// atomic and deadlock-free; for a box that is every dependence component
// being non-negative. The paper additionally assumes ⌊HD⌋ = 0 (every
// dependence is shorter than the tile, 0 ≤ d_i < s_i), which makes the tiled
// dependence matrix D^S consist of 0/1 vectors only — each tile communicates
// only with its nearest neighbor in each dimension. Formulas (1) and (2) are
// integers for a box: g/s_i is the product of the other sides.
package tiling
