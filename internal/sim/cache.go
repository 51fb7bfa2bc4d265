package sim

import (
	"context"
	"sync"

	"repro/internal/fault"
	"repro/internal/model"
)

// cacheKey identifies one grid simulation point. Every field is a plain
// comparable value (GridOpts' fault plan and interconnect included), so two
// requests for the same point — e.g. a ladder rung revisited by the
// refinement pass of an optimum search, or a sweep height re-simulated by a
// later optimum search — collapse onto one entry.
type cacheKey struct {
	grid model.Grid3D
	v    int64
	m    model.Machine
	mode Mode
	cap  Capability
	o    GridOpts
}

// cacheEntry is one stored simulation result on the cache's LRU ring.
type cacheEntry struct {
	key        cacheKey
	r          Result
	prev, next *cacheEntry // intrusive LRU links; the head side is most recent
}

// inflightCall coalesces concurrent misses on one key: the first caller
// (the leader) runs the engine, everyone else waits on done and shares the
// leader's result. The leader always runs its evaluation to completion —
// even if its own context is cancelled mid-run — so waiters never observe a
// half-finished entry and the cache stays consistent under cancellation.
type inflightCall struct {
	done chan struct{}
	r    Result
	err  error
}

// Cache memoizes grid simulation results keyed on (grid, V, machine, mode,
// capability, GridOpts). The simulator is deterministic, so a cached Result
// is bit-identical to a fresh SimulateGrid run. A Cache is safe for
// concurrent use and keeps a pool of Simulators so misses reuse engine
// memory instead of allocating fresh engines.
//
// One mutex guards the result map, the in-flight map, the LRU ring and the
// counters. It is held for a map lookup and a few pointer swaps, well under
// a microsecond, while a miss costs milliseconds of DES work outside the
// lock, and at most a sweep's GOMAXPROCS workers or a planning server's
// handlers contend for it, so the lock is never the bottleneck (DESIGN.md
// §11). Concurrent misses on the same key coalesce: exactly one caller runs
// the engine and every waiter shares its result, so Evals counts real
// engine executions exactly.
//
// A cache built with NewCacheBounded never holds more than its bound: an
// insert past it evicts the least recently used entry under the same lock,
// so the LRU order is exact under concurrency too, and a long-running
// process serving many distinct planning points holds memory constant
// instead of growing without limit.
type Cache struct {
	maxEntries int // <= 0 = unbounded
	pool       sync.Pool

	mu       sync.Mutex
	m        map[cacheKey]*cacheEntry
	inflight map[cacheKey]*inflightCall
	lru      cacheEntry // sentinel of the recency ring: lru.next is the most recent entry, lru.prev the next victim
	stats    CacheStats // every field but Entries, which is len(m)
}

// CacheStats is a point-in-time snapshot of a Cache's counters, in the
// style of the obs package's report structs: plain exported numbers, safe
// to copy and compare. Hits and Misses count lookups (every lookup is
// exactly one of the two, coalesced waiters counting as misses); Evals
// counts actual simulator executions and is exact — concurrent misses on
// one key coalesce onto a single evaluation, counted once. Evals can trail
// Misses both through coalescing and because a malformed point fails
// validation before reaching the engine. Coalesced counts the waiters that
// shared another caller's in-flight evaluation; Evictions counts entries
// dropped to honor the bound of a NewCacheBounded cache. The optimum-search
// tests use Evals to assert how much DES work a query really cost.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evals     uint64
	Coalesced uint64
	Evictions uint64
	Entries   int
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.m)
	return st
}

// NewCache returns an empty, unbounded simulation cache — the right choice
// for one-shot CLI sweeps, where the working set is the sweep itself.
func NewCache() *Cache {
	return NewCacheBounded(0)
}

// NewCacheBounded returns an empty cache that never holds more than
// maxEntries results: inserting past the bound evicts the least recently
// used entry (counted in CacheStats.Evictions). maxEntries <= 0 means
// unbounded. Long-running services must bound their cache — a planning
// server's key space is as unbounded as its request stream.
func NewCacheBounded(maxEntries int) *Cache {
	c := &Cache{
		maxEntries: maxEntries,
		pool:       sync.Pool{New: func() any { return NewSimulator() }},
		m:          make(map[cacheKey]*cacheEntry),
		inflight:   make(map[cacheKey]*inflightCall),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// MaxEntries returns the configured entry bound (0 = unbounded).
func (c *Cache) MaxEntries() int { return c.maxEntries }

// pushFront links e as the most recently used entry.
func (c *Cache) pushFront(e *cacheEntry) {
	e.prev = &c.lru
	e.next = c.lru.next
	e.prev.next = e
	e.next.prev = e
}

// unlink removes e from the LRU ring.
func (c *Cache) unlink(e *cacheEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

// SimulateGridCtx is the memoized SimulateGrid: a hit returns the stored
// Result, a miss simulates (reusing a pooled engine) and stores it. An
// inactive fault plan is canonicalized to the zero plan, so a fault-free
// request shares its entry with the plain one. The metrics and trace flags
// are part of the key — those Results carry the extra Obs report / labeled
// trace — and hits return the same *obs.Report pointer and Trace slice,
// which callers must treat as read-only.
//
// Cancellation is honored at the admission points — before an evaluation
// starts, and while waiting on another caller's coalesced evaluation — so a
// cancelled sweep stops issuing DES work promptly. An evaluation that has
// already started runs to completion and is stored: its cost is bounded
// (one grid point), coalesced waiters may depend on it, and a completed
// result left in the cache keeps later uncancelled queries bit-identical.
func (c *Cache) SimulateGridCtx(ctx context.Context, g model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability, o GridOpts) (Result, error) {
	key := keyOf(g, v, m, mode, cap, o)

	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.stats.Hits++
		c.unlink(e)
		c.pushFront(e)
		r := e.r
		c.mu.Unlock()
		return r, nil
	}
	c.stats.Misses++
	if call, ok := c.inflight[key]; ok {
		c.stats.Coalesced++
		c.mu.Unlock()
		return call.await(ctx)
	}
	if err := ctx.Err(); err != nil {
		// Not yet committed to leading an evaluation: bail before the
		// engine runs rather than after.
		c.mu.Unlock()
		return Result{}, err
	}
	call := &inflightCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	cfg, err := gridConfig(g, v, m, mode, cap, o)
	ran := err == nil
	if ran {
		sm := c.pool.Get().(*Simulator)
		call.r, err = sm.Simulate(cfg)
		c.pool.Put(sm)
	}
	call.err = err

	c.mu.Lock()
	delete(c.inflight, key)
	if ran {
		c.stats.Evals++
	}
	if err == nil {
		e := &cacheEntry{key: key, r: call.r}
		c.m[key] = e
		c.pushFront(e)
		if c.maxEntries > 0 && len(c.m) > c.maxEntries {
			victim := c.lru.prev
			c.unlink(victim)
			delete(c.m, victim.key)
			c.stats.Evictions++
		}
	}
	c.mu.Unlock()
	close(call.done)
	return call.r, call.err
}

// Contains reports whether the point's result is stored. It counts no
// lookup and leaves the recency order alone, so asking changes nothing a
// later SimulateGridCtx observes; a caller uses it to learn that an
// evaluation would be a cheap hit before deciding how to run it.
func (c *Cache) Contains(g model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability, o GridOpts) bool {
	key := keyOf(g, v, m, mode, cap, o)
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[key]
	return ok
}

// keyOf builds a point's cache key. An inactive fault plan is
// canonicalized to the zero plan, so a fault-free request shares its entry
// with the plain one.
func keyOf(g model.Grid3D, v int64, m model.Machine, mode Mode, cap Capability, o GridOpts) cacheKey {
	if !o.Fault.Active() {
		o.Fault = fault.Plan{}
	}
	return cacheKey{grid: g, v: v, m: m, mode: mode, cap: cap, o: o}
}

// await blocks until a coalesced in-flight evaluation completes or ctx is
// cancelled. A result that is ready wins over a simultaneous cancellation.
func (call *inflightCall) await(ctx context.Context) (Result, error) {
	select {
	case <-call.done:
		return call.r, call.err
	case <-ctx.Done():
		select {
		case <-call.done:
			return call.r, call.err
		default:
		}
		return Result{}, ctx.Err()
	}
}
