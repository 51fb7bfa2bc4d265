//go:build !tilevet_fixture_excluded && !plan9

// Package fixture has one declaration with three per-configuration
// variants, only this one built on any host the tests run on. The other two
// read the wall clock: loaded regardless of their build constraints they
// would collide with this file and trip the determinism analyzer.
package fixture

func stamp() int64 { return 0 }

var _ = stamp
