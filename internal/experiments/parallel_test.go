package experiments

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
)

// shrinkSweep scales a paper sweep down for fast deterministic tests.
func shrinkSweep(s Sweep, factor int64) Sweep {
	s.Grid.K /= factor
	s.Heights = Ladder(4, s.Grid.K/4)
	return s
}

// TestRunMetricsParallelMatchesSequential: with the phase-accounting pass on,
// the worker-pool RunCtx must still deep-equal the sequential reference — the
// overlap-efficiency columns included — regardless of worker scheduling
// (obs.Analyze iterates tracks in a canonical order, so the float
// accumulation order is fixed).
func TestRunMetricsParallelMatchesSequential(t *testing.T) {
	s := shrinkSweep(Fig9(), 64)
	s.Metrics = true
	par, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := runSequential(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Errorf("metrics rows differ from sequential reference:\npar: %+v\nseq: %+v", par, seq)
	}
	best := 0
	for i, r := range par {
		if r.OverlapEff <= 0 || r.OverlapEff > 1 || r.BlockingEff < 0 || r.BlockingEff > 1 {
			t.Errorf("V=%d: efficiency out of range: ov %g bl %g", r.V, r.OverlapEff, r.BlockingEff)
		}
		if r.OverlapSim < par[best].OverlapSim {
			best = i
		}
	}
	// At the overlapped schedule's best height it must hide a larger comm
	// fraction than blocking does (at comm-dominated extremes the blocking
	// schedule can accidentally edge ahead — the paper's claim is about the
	// optimum).
	if r := par[best]; r.OverlapEff <= r.BlockingEff {
		t.Errorf("V=%d (optimum): overlapped efficiency %g not above blocking %g",
			r.V, r.OverlapEff, r.BlockingEff)
	}
}

// TestRunSharedCacheIdentical: running through a shared cache (hits on the
// second call) returns the same rows as the first.
func TestRunSharedCacheIdentical(t *testing.T) {
	s := shrinkSweep(Fig9(), 64)
	s.Cache = sim.NewCache()
	first, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	points := s.Cache.Stats().Entries
	if want := 2 * len(s.Heights); points != want {
		t.Errorf("cache holds %d points after RunCtx, want %d", points, want)
	}
	second, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if s.Cache.Stats().Entries != points {
		t.Errorf("second RunCtx simulated new points: %d -> %d", points, s.Cache.Stats().Entries)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached rows differ from fresh rows")
	}
}

// TestOptimumUsesCache: the ladder pass of Optimum revisits every height the
// preceding RunCtx simulated, so with a shared cache the search must only add
// its novel refinement rungs.
func TestOptimumUsesCache(t *testing.T) {
	s := shrinkSweep(Fig9(), 64)
	s.Cache = sim.NewCache()
	if _, err := s.RunCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	afterRun := s.Cache.Stats().Entries
	o1, err := s.OptimumDetailCtx(context.Background(), sim.Overlapped)
	if err != nil {
		t.Fatal(err)
	}
	grew := s.Cache.Stats().Entries - afterRun
	if grew > 13 {
		t.Errorf("Optimum added %d points, refinement should add at most 13", grew)
	}
	// A second identical search is answered fully from the cache.
	before := s.Cache.Stats().Entries
	o2, err := s.OptimumDetailCtx(context.Background(), sim.Overlapped)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cache.Stats().Entries != before {
		t.Errorf("repeated Optimum simulated %d new points", s.Cache.Stats().Entries-before)
	}
	if o1.V != o2.V || o1.T != o2.T {
		t.Errorf("repeated Optimum disagrees: (%d, %g) vs (%d, %g)", o1.V, o1.T, o2.V, o2.T)
	}
}

// TestRefineDedupSorted: clamping to [lo, hi] and integer rounding collapse
// rungs; the emitted list must be strictly increasing with no duplicates
// and stay within bounds.
func TestRefineDedupSorted(t *testing.T) {
	cases := []struct {
		center, lo, hi int64
		n              int
	}{
		{100, 1, 1000, 13},
		{4, 1, 1000, 13},   // 0.5x..1.5x of 4 collapses heavily when rounded
		{100, 90, 110, 13}, // both tails clamp onto the bounds
		{1, 1, 1, 5},       // degenerate range: single height
		{16, 1, 64, 1},     // n below 2 is raised to 2
	}
	for _, tc := range cases {
		vs := Refine(tc.center, tc.lo, tc.hi, tc.n)
		if len(vs) == 0 {
			t.Errorf("Refine(%d,%d,%d,%d) returned no heights", tc.center, tc.lo, tc.hi, tc.n)
			continue
		}
		if !sort.SliceIsSorted(vs, func(i, j int) bool { return vs[i] < vs[j] }) {
			t.Errorf("Refine(%d,%d,%d,%d) not sorted: %v", tc.center, tc.lo, tc.hi, tc.n, vs)
		}
		for i := 1; i < len(vs); i++ {
			if vs[i] == vs[i-1] {
				t.Errorf("Refine(%d,%d,%d,%d) emits duplicate %d: %v", tc.center, tc.lo, tc.hi, tc.n, vs[i], vs)
			}
		}
		for _, v := range vs {
			if v < tc.lo || v > tc.hi {
				t.Errorf("Refine(%d,%d,%d,%d) emits out-of-range %d", tc.center, tc.lo, tc.hi, tc.n, v)
			}
		}
	}
}

// TestRunErrorPropagates: a bad height must fail the whole parallel run
// with the point identified, not deadlock the pool.
func TestRunErrorPropagates(t *testing.T) {
	s := shrinkSweep(Fig9(), 64)
	s.Heights = append(append([]int64{}, s.Heights...), s.Grid.K+1) // out of range
	if _, err := s.RunCtx(context.Background()); err == nil {
		t.Fatal("RunCtx accepted an out-of-range height")
	}
}
