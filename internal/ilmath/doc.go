// Package ilmath provides the exact integer vectors of loop-tiling
// transformations: index points, dependence vectors, tile coordinates and
// schedule vectors. Arithmetic is over int64 with overflow checks; an
// overflow panics with ErrOverflow rather than wrapping silently.
package ilmath
