// Package deps models uniform (constant) loop-carried data dependences.
//
// A dependence vector d means iteration j depends on iteration j − d; for the
// sequential loop order to be a valid execution order every dependence vector
// must be lexicographically positive. The dependence set D of an algorithm is
// the paper's column matrix D, kept as its ordered list of vectors; legality
// of a tiling H, HD ≥ 0, is checked by package tiling against that list.
package deps
