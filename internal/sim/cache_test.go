package sim

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/model"
)

func cacheTestGrid() (model.Grid3D, model.Machine) {
	return model.Grid3D{I: 8, J: 8, K: 64, PI: 4, PJ: 4}, model.PentiumCluster()
}

func TestCacheStatsCounting(t *testing.T) {
	g, m := cacheTestGrid()
	c := NewCache()
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("fresh cache stats = %+v, want zeros", st)
	}

	// First request: a miss that evaluates and stores.
	r1, err := c.SimulateGridCtx(context.Background(), g, 8, m, Overlapped, CapDMA, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st != (CacheStats{Misses: 1, Evals: 1, Entries: 1}) {
		t.Errorf("after one miss: %+v", st)
	}

	// Same point again: a hit, no new evaluation, bit-identical result.
	r2, err := c.SimulateGridCtx(context.Background(), g, 8, m, Overlapped, CapDMA, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan != r2.Makespan {
		t.Errorf("hit returned different makespan: %g vs %g", r1.Makespan, r2.Makespan)
	}
	if st := c.Stats(); st != (CacheStats{Hits: 1, Misses: 1, Evals: 1, Entries: 1}) {
		t.Errorf("after hit: %+v", st)
	}

	// The metrics flag is part of the key: same point with metrics on is a
	// distinct entry, so another miss and evaluation.
	if _, err := c.SimulateGridCtx(context.Background(), g, 8, m, Overlapped, CapDMA, GridOpts{Metrics: true}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st != (CacheStats{Hits: 1, Misses: 2, Evals: 2, Entries: 2}) {
		t.Errorf("after metrics-flag miss: %+v", st)
	}

	// A malformed point fails validation before reaching the engine: the
	// miss is counted, the evaluation is not.
	bad := g
	bad.I = 7 // PI=4 does not divide 7
	if _, err := c.SimulateGridCtx(context.Background(), bad, 8, m, Overlapped, CapDMA, GridOpts{}); err == nil {
		t.Fatal("malformed grid accepted")
	}
	if st := c.Stats(); st != (CacheStats{Hits: 1, Misses: 3, Evals: 2, Entries: 2}) {
		t.Errorf("after failed validation: %+v", st)
	}
}

// TestCacheStatsConcurrent hammers one cache from many goroutines (run
// under -race in make check): the counters must account for every lookup,
// and every hit+miss must sum to the number of requests.
func TestCacheStatsConcurrent(t *testing.T) {
	g, m := cacheTestGrid()
	c := NewCache()
	const workers, iters = 8, 20
	heights := []int64{4, 8, 16, 32}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v := heights[i%len(heights)]
				if _, err := c.SimulateGridCtx(context.Background(), g, v, m, Overlapped, CapDMA, GridOpts{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != workers*iters {
		t.Errorf("hits+misses = %d+%d, want %d requests", st.Hits, st.Misses, workers*iters)
	}
	if st.Entries != len(heights) {
		t.Errorf("entries = %d, want %d", st.Entries, len(heights))
	}
	// Coalescing makes Evals exact: one engine run per distinct key, no
	// matter how the workers collide.
	if st.Evals != uint64(len(heights)) {
		t.Errorf("evals = %d, want exactly %d (one per distinct key)", st.Evals, len(heights))
	}
}

// TestCacheCoalescesConcurrentMisses is the regression test for the
// duplicate-eval bug the pre-coalescing cache documented in CacheStats:
// N goroutines hammering one cold key must produce exactly one engine
// evaluation, with every other caller counted as coalesced and all results
// bit-identical.
func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	g, m := cacheTestGrid()
	c := NewCache()
	const workers = 16
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		spans   []float64
		release = make(chan struct{})
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release // line everyone up on the same cold key
			r, err := c.SimulateGridCtx(context.Background(), g, 16, m, Overlapped, CapDMA, GridOpts{})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			spans = append(spans, r.Makespan)
			mu.Unlock()
		}()
	}
	close(release)
	wg.Wait()
	st := c.Stats()
	if st.Evals != 1 {
		t.Errorf("evals = %d, want 1: concurrent misses on one key must coalesce", st.Evals)
	}
	if st.Hits+st.Misses != workers {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, workers)
	}
	if st.Coalesced+st.Evals != st.Misses {
		t.Errorf("coalesced(%d)+evals(%d) != misses(%d)", st.Coalesced, st.Evals, st.Misses)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
	for _, s := range spans[1:] {
		if s != spans[0] {
			t.Fatalf("coalesced results differ: %g vs %g", s, spans[0])
		}
	}
}

// TestCacheBoundEviction fills a bounded cache past its limit and checks
// the bound holds, evictions are counted, and an evicted point re-evaluates
// to a bit-identical result.
func TestCacheBoundEviction(t *testing.T) {
	g, m := cacheTestGrid()
	const bound = 3
	c := NewCacheBounded(bound)
	heights := []int64{2, 4, 8, 16, 32, 64}
	first := make(map[int64]float64)
	for _, v := range heights {
		r, err := c.SimulateGridCtx(context.Background(), g, v, m, Overlapped, CapDMA, GridOpts{})
		if err != nil {
			t.Fatal(err)
		}
		first[v] = r.Makespan
		if n := c.Stats().Entries; n > bound {
			t.Fatalf("cache holds %d entries, bound is %d", n, bound)
		}
	}
	st := c.Stats()
	if st.Evictions != uint64(len(heights)-bound) {
		t.Errorf("evictions = %d, want %d", st.Evictions, len(heights)-bound)
	}
	if st.Entries != bound {
		t.Errorf("entries = %d, want %d", st.Entries, bound)
	}
	// An evicted point re-simulates (another eval) to the same bits.
	r, err := c.SimulateGridCtx(context.Background(), g, heights[0], m, Overlapped, CapDMA, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != first[heights[0]] {
		t.Errorf("re-evaluated makespan %g != original %g", r.Makespan, first[heights[0]])
	}
	if got := c.Stats().Evals; got != uint64(len(heights)+1) {
		t.Errorf("evals = %d, want %d (evicted entry re-evaluated)", got, len(heights)+1)
	}
}

// TestCacheBoundLRUOrder checks the recency policy: touching an old entry
// saves it from the next eviction.
func TestCacheBoundLRUOrder(t *testing.T) {
	g, m := cacheTestGrid()
	c := NewCacheBounded(2)
	for _, v := range []int64{2, 4} {
		if _, err := c.SimulateGridCtx(context.Background(), g, v, m, Overlapped, CapDMA, GridOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch V=2 so V=4 is now least recent; inserting V=8 must evict V=4.
	if _, err := c.SimulateGridCtx(context.Background(), g, 2, m, Overlapped, CapDMA, GridOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SimulateGridCtx(context.Background(), g, 8, m, Overlapped, CapDMA, GridOpts{}); err != nil {
		t.Fatal(err)
	}
	pre := c.Stats()
	if _, err := c.SimulateGridCtx(context.Background(), g, 2, m, Overlapped, CapDMA, GridOpts{}); err != nil {
		t.Fatal(err)
	}
	if post := c.Stats(); post.Hits != pre.Hits+1 {
		t.Errorf("V=2 should have survived eviction (hits %d -> %d)", pre.Hits, post.Hits)
	}
	if _, err := c.SimulateGridCtx(context.Background(), g, 4, m, Overlapped, CapDMA, GridOpts{}); err != nil {
		t.Fatal(err)
	}
	if post := c.Stats(); post.Misses != pre.Misses+1 {
		t.Errorf("V=4 should have been evicted (misses %d -> %d)", pre.Misses, post.Misses)
	}
}

// TestCacheContains: Contains sees stored points (an inactive fault plan
// canonicalized like SimulateGridCtx's key), counts no lookup and leaves
// the recency order alone, so the entry it asked about is still the next
// victim.
func TestCacheContains(t *testing.T) {
	g, m := cacheTestGrid()
	c := NewCacheBounded(2)
	for _, v := range []int64{2, 4} {
		if _, err := c.SimulateGridCtx(context.Background(), g, v, m, Overlapped, CapDMA, GridOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	pre := c.Stats()
	if !c.Contains(g, 2, m, Overlapped, CapDMA, GridOpts{Fault: fault.Plan{Seed: 9}}) {
		t.Error("stored point V=2 not contained")
	}
	if c.Contains(g, 8, m, Overlapped, CapDMA, GridOpts{}) || c.Contains(g, 2, m, Blocking, CapDMA, GridOpts{}) {
		t.Error("unstored point contained")
	}
	if st := c.Stats(); st != pre {
		t.Errorf("Contains moved the counters: %+v -> %+v", pre, st)
	}
	if _, err := c.SimulateGridCtx(context.Background(), g, 8, m, Overlapped, CapDMA, GridOpts{}); err != nil {
		t.Fatal(err)
	}
	if c.Contains(g, 2, m, Overlapped, CapDMA, GridOpts{}) || !c.Contains(g, 4, m, Overlapped, CapDMA, GridOpts{}) {
		t.Error("Contains touched V=2's recency: V=4 was evicted in its place")
	}
}

// TestCacheBoundConcurrent drives a bounded cache from several goroutines
// over more keys than it holds (run under -race in make check), so inserts,
// evictions, hits and coalesced misses interleave. At quiescence the bound
// must hold and the counters must balance exactly: every lookup is a hit or
// a miss, every miss either led one evaluation or coalesced onto one, and
// every evaluation's entry is either still stored or was evicted.
func TestCacheBoundConcurrent(t *testing.T) {
	g, m := cacheTestGrid()
	const bound, workers, iters = 4, 8, 30
	heights := []int64{2, 3, 4, 5, 6, 8, 12, 16, 24, 32}
	want := make(map[int64]float64)
	for _, v := range heights {
		r, err := SimulateGrid(g, v, m, Overlapped, CapDMA, GridOpts{})
		if err != nil {
			t.Fatal(err)
		}
		want[v] = r.Makespan
	}
	c := NewCacheBounded(bound)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v := heights[(w*3+i*7)%len(heights)]
				r, err := c.SimulateGridCtx(context.Background(), g, v, m, Overlapped, CapDMA, GridOpts{})
				if err != nil {
					t.Error(err)
					return
				}
				if r.Makespan != want[v] {
					t.Errorf("V=%d: cached makespan %g != uncached %g", v, r.Makespan, want[v])
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if n := c.Stats().Entries; n > bound || n != st.Entries {
		t.Errorf("Len() = %d, Stats().Entries = %d, bound %d", n, st.Entries, bound)
	}
	if st.Hits+st.Misses != workers*iters {
		t.Errorf("hits+misses = %d+%d, want %d calls", st.Hits, st.Misses, workers*iters)
	}
	if st.Evals != st.Misses-st.Coalesced {
		t.Errorf("evals = %d, want misses(%d) - coalesced(%d)", st.Evals, st.Misses, st.Coalesced)
	}
	if st.Evictions != st.Evals-uint64(st.Entries) {
		t.Errorf("evictions = %d, want evals(%d) - entries(%d)", st.Evictions, st.Evals, st.Entries)
	}
}

// TestCacheCtxCancelled: a context cancelled before the call must refuse to
// start an evaluation, and the cache must stay consistent for later
// uncancelled queries.
func TestCacheCtxCancelled(t *testing.T) {
	g, m := cacheTestGrid()
	c := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.SimulateGridCtx(ctx, g, 8, m, Overlapped, CapDMA, GridOpts{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Evals != 0 {
		t.Errorf("cancelled call ran the engine: evals = %d", st.Evals)
	}
	// The same point, uncancelled, still works and matches a fresh cache.
	r, err := c.SimulateGridCtx(context.Background(), g, 8, m, Overlapped, CapDMA, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewCache().SimulateGridCtx(context.Background(), g, 8, m, Overlapped, CapDMA, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != want.Makespan {
		t.Errorf("post-cancel result %g != fresh %g", r.Makespan, want.Makespan)
	}
}
