package estimate

import (
	"context"
	"sync"

	"repro/internal/model"
	"repro/internal/sim"
)

// ForGrid wires a Config to the Grid3D stack: the mode's closed form
// (OptimalVOverlapAnalytic / OptimalVBlockingAnalytic) seeds the bracket,
// the matching eq. 3/4 prediction prices unprobed heights,
// sim.GridLowerBound bounds them, and probes run
// through the memoized simulator under ctx, so repeated queries and later
// sweeps share DES work and a cancelled caller stops issuing probes. If
// the closed form has no solution for the configuration, the seed is left
// unusable and Optimum routes the query to the exact tier. The caller may
// still set Config.Exact on the returned value.
//
// The two bracket rungs are independent, and Optimum always probes both,
// lower first. So when the probe is asked for the lower rung of the
// bracket of heights and the seed, and the upper rung is not cached yet,
// it simulates both rungs at once: the upper one on a second goroutine,
// through the same cache, and returns only when both are done. The upper
// rung's result (or error) is kept and handed back by the next probe of
// that rung without a second cache lookup. The cache sees the same lookups
// and evaluations as the sequential search, so answers, Outcome.Probes and
// sim.CacheStats are unchanged; a cold query takes the longer of the two
// evaluations instead of their sum. A cached upper rung is looked up in
// turn as before: a hit costs less than starting a goroutine.
//
// The longer of the two is the lower rung, whose smaller height means more
// tiles: on the seed-1 serve-cold list (625 requests on one cache, 2-core
// Xeon) the lower rungs took 2.76 s summed against 1.32 s for the upper
// ones, the pairs' wall time was 2.78 s of the list's 3.10 s, and the
// walk's sequential probes took 0.31 s, about 10 %. Pruning walk probes
// saves at most that share there; a cheaper evaluation saves on every
// probe.
func ForGrid(ctx context.Context, g model.Grid3D, m model.Machine, mode sim.Mode, cap sim.Capability, c *sim.Cache, heights []int64) Config {
	cfg := Config{Heights: heights}
	if mode == sim.Blocking {
		cfg.Model = func(v int64) float64 { return g.PredictNonOverlap(v, m) }
		if v, _, err := g.OptimalVBlockingAnalytic(m); err == nil {
			cfg.SeedV = v
		}
	} else {
		cfg.Model = func(v int64) float64 { return g.PredictOverlap(v, m) }
		if v, _, err := g.OptimalVOverlapAnalytic(m); err == nil {
			cfg.SeedV = v
		}
	}
	cfg.Bound = func(v int64) float64 { return sim.GridLowerBound(g, v, m, mode, cap, sim.GridOpts{}) }
	simulate := func(v int64) (float64, error) {
		r, err := c.SimulateGridCtx(ctx, g, v, m, mode, cap, sim.GridOpts{})
		if err != nil {
			return 0, err
		}
		return r.Makespan, nil
	}
	rungs := dedupeSorted(heights)
	lo, hi, ok := bracket(rungs, cfg.SeedV)
	// upper is the pairing's state: whether the pair has yet to run,
	// and the upper rung's answer once it is kept.
	upper := struct {
		pending, kept bool
		t             float64
		err           error
	}{pending: ok}
	cfg.Probe = func(v int64) (float64, error) {
		switch {
		case upper.pending && v == rungs[lo]:
			upper.pending = false
			if c.Contains(g, rungs[hi], m, mode, cap, sim.GridOpts{}) {
				return simulate(v)
			}
			var t float64
			var err error
			both(func() { t, err = simulate(v) },
				func() { upper.t, upper.err = simulate(rungs[hi]) })
			upper.kept = true
			return t, err
		case upper.kept && v == rungs[hi]:
			upper.kept = false
			return upper.t, upper.err
		}
		return simulate(v)
	}
	return cfg
}

// both runs first on the calling goroutine and second on a new one, and
// returns only when both have finished, so no goroutine outlives the call.
// A panic in second is re-raised on the caller, where the caller's own
// recovery (tileserve contains a poisoned evaluation that way) sees it.
func both(first, second func()) {
	var wg sync.WaitGroup
	var secondPanic any
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { secondPanic = recover() }()
		second()
	}()
	defer func() {
		wg.Wait()
		if secondPanic != nil {
			panic(secondPanic)
		}
	}()
	first()
}
