// Package model implements the machine and the completion-time formulas of
// Sections 3 and 4 of the paper: the non-overlapping model
// T = P(g)(T_comp + T_comm) (eq. 3), the overlapping model
// T = P(g)·max(A1+A2+A3, B1+B2+B3+B4) (eq. 4/5), and the tile-size
// optimization built on them. It derives no tiling, mapping or schedule
// length — core.Plan does, and feeds them in — and imports no package of
// the module. Grid3D is the allocation-light Section 5 specialisation: its
// schedule lengths and totals equal the Predict of the box plan they
// describe.
//
// All times are in seconds.
package model
