package simnet

import (
	"fmt"
	"math"
)

// Resource is a serially-shared facility (a CPU, a DMA engine, a NIC port).
type Resource struct {
	ID   int
	Name string

	busy    bool
	freeAt  float64
	pending keyedHeap // ready activities: (ready time, ID)
	lastAct int32     // most recently completed activity (−1 for none), for critical paths
	// busyTime accumulates total occupancy for utilization reporting.
	busyTime float64
}

// BusyTime returns the total time the resource spent executing activities
// in the last Run. Dividing by the makespan gives its utilization.
func (r *Resource) BusyTime() float64 { return r.busyTime }

// Activity is a unit of work bound to one resource.
//
// An Activity holds no pointers, strings or slices: its resource, its
// predecessors and its successors are int32 indices into the engine, and
// its label lives in the engine's side table. The slabs activities live in
// are therefore allocated no-scan, and the garbage collector never walks a
// simulation graph however large it grows. It fills exactly one 64-byte
// cache line, so the event loop pays one line per activity it touches.
type Activity struct {
	ID       int
	Duration float64

	// Start and End are filled in by Run.
	Start, End float64

	ready float64 // max end time of completed predecessors
	res   int32   // index of the resource the activity occupies
	// npreds counts predecessors not yet completed.
	npreds int32
	// Successors live in the engine's CSR array: succList[succOff:succOff+succN].
	succOff, succN int32

	// Critical-path bookkeeping (see critpath.go). Until the activity
	// starts, critPred is the predecessor whose completion set ready (−1
	// for none); the start may hand the blame to the resource's previous
	// occupant instead.
	critPred int32
	critKind int8 // a CritKind
	done     bool
}

// edge is one precedence constraint between two activity indices, buffered
// until Run builds the CSR successor lists.
type edge struct {
	before, after int32
}

// Slab sizes: large enough that slab bookkeeping is negligible, small
// enough that a tiny simulation doesn't waste memory. The activity slab
// size is a power of two so an index splits into (slab, offset) by shift
// and mask.
const (
	actSlabShift = 12
	actSlabSize  = 1 << actSlabShift
	resSlabSize  = 64
)

// Engine owns the resources and activities of one simulation.
type Engine struct {
	resources []*Resource

	// Chunked arenas backing the activities and resources. Chunks are
	// never reallocated, so &slab[i] stays valid while the graph grows;
	// Reset rewinds the counters and reuses the same chunks. Activity i is
	// actSlabs[i>>actSlabShift][i&(actSlabSize-1)].
	actSlabs []*[actSlabSize]Activity
	nacts    int
	resSlabs [][]Resource

	// labels[i] is activity i's label. It stays nil until the first
	// non-empty label arrives, so untraced builds never allocate it; an
	// index past its end reads as "".
	labels []string

	edges    []edge
	succList []int32
	events   eventQueue

	trace     []TraceEntry
	keepTrace bool
	perturb   PerturbFunc

	// intervals is the string-free activity log behind KeepIntervals. Unlike
	// trace it is reused across Resets: callers consume it synchronously
	// (Intervals is invalidated by the next Reset), so the backing array can
	// be recycled instead of abandoned.
	intervals     []Interval
	keepIntervals bool
}

// PerturbFunc rescales an activity's nominal duration at registration time
// — the engine's fault-injection hook. It receives the resource the
// activity is bound to and the nominal duration and returns the perturbed
// duration, which must remain non-negative and finite. Builders install one
// via SetPerturb to model stragglers, slow links or jittered transfers
// without changing the graph structure.
type PerturbFunc func(r *Resource, duration float64) float64

// TraceEntry records one executed activity for Gantt rendering.
type TraceEntry struct {
	Resource string
	Label    string
	Start    float64
	End      float64
	// Ready is when the activity's last dataflow predecessor finished (0 for
	// chain heads): Start − Ready is how long it queued for its resource.
	Ready float64
}

// Interval records one executed activity for metrics accounting: which
// resource ran it and when. Unlike TraceEntry it carries no strings, so the
// log stays cheap enough for untraced sweep simulations (see KeepIntervals).
type Interval struct {
	Res *Resource
	// Ready is when the activity's last dataflow predecessor finished;
	// Start − Ready is the time spent queued behind the resource.
	Ready      float64
	Start, End float64
}

// NewEngine returns an empty simulation.
func NewEngine() *Engine { return &Engine{} }

// Reset rewinds the engine so it can build and run a fresh simulation while
// reusing every slab, heap and edge buffer of the previous one. Any Trace
// slice handed out by the previous Run is abandoned to its caller (never
// overwritten). Resource and Activity pointers from before the Reset must
// not be used afterwards.
func (e *Engine) Reset() {
	e.resources = e.resources[:0]
	e.nacts = 0
	e.labels = nil
	e.edges = e.edges[:0]
	e.succList = e.succList[:0]
	if len(e.trace) > 0 {
		e.trace = nil // the previous caller owns it now
	}
	e.intervals = e.intervals[:0]
	e.keepTrace = false
	e.keepIntervals = false
	e.perturb = nil
}

// SetPerturb installs (or, with nil, removes) the duration perturbation
// hook applied to every subsequently registered activity. Reset removes the
// hook, so a reused engine starts each simulation unperturbed.
func (e *Engine) SetPerturb(f PerturbFunc) { e.perturb = f }

// KeepTrace enables recording of a full execution trace (off by default to
// keep large sweeps cheap).
func (e *Engine) KeepTrace(on bool) { e.keepTrace = on }

// KeepIntervals enables recording of the string-free per-activity interval
// log (off by default). It is the cheap sibling of KeepTrace for metrics
// accounting: no labels or resource names are materialized, and the backing
// array is recycled across Resets. Read the log with Intervals after Run.
func (e *Engine) KeepIntervals(on bool) { e.keepIntervals = on }

// Intervals returns the interval log of the last Run (nil unless
// KeepIntervals was on). The returned slice is owned by the engine and is
// invalidated by the next Reset: callers must finish aggregating before
// reusing the engine.
func (e *Engine) Intervals() []Interval { return e.intervals }

// Reserve pre-sizes the engine's bookkeeping for a graph of about the given
// number of activities and dependence edges, so a builder that knows its
// tile and message counts up front avoids regrowth entirely.
func (e *Engine) Reserve(activities, deps int) {
	// Slabs themselves are allocated as the graph reaches them (the
	// estimate may be generous); only the slab table is sized up front.
	if n := (e.nacts + activities + actSlabSize - 1) >> actSlabShift; cap(e.actSlabs) < n {
		grown := make([]*[actSlabSize]Activity, len(e.actSlabs), n)
		copy(grown, e.actSlabs)
		e.actSlabs = grown
	}
	if n := len(e.edges) + deps; cap(e.edges) < n {
		grown := make([]edge, len(e.edges), n)
		copy(grown, e.edges)
		e.edges = grown
	}
}

// NewResource registers a serially-shared resource.
func (e *Engine) NewResource(name string) *Resource {
	n := len(e.resources)
	chunk, idx := n/resSlabSize, n%resSlabSize
	if chunk == len(e.resSlabs) {
		e.resSlabs = append(e.resSlabs, make([]Resource, resSlabSize))
	}
	r := &e.resSlabs[chunk][idx]
	pending := r.pending[:0] // keep the ready-heap's backing array across Resets
	*r = Resource{ID: n, Name: name, pending: pending, lastAct: -1}
	e.resources = append(e.resources, r)
	return r
}

// NewActivity registers an activity of the given duration on resource r.
// Durations must be non-negative; zero-duration activities are permitted
// (useful as synchronization points). The returned pointer stays valid
// until the next Reset.
func (e *Engine) NewActivity(r *Resource, duration float64, label string) *Activity {
	if r == nil {
		panic("simnet: nil resource")
	}
	if duration < 0 || math.IsNaN(duration) {
		panic(fmt.Sprintf("simnet: invalid duration %g for %q", duration, label))
	}
	if e.perturb != nil {
		duration = e.perturb(r, duration)
		if duration < 0 || math.IsNaN(duration) || math.IsInf(duration, 0) {
			panic(fmt.Sprintf("simnet: perturbed duration %g for %q is invalid", duration, label))
		}
	}
	n := e.nacts
	if n == math.MaxInt32 {
		panic("simnet: too many activities for int32 indices")
	}
	chunk := n >> actSlabShift
	if chunk == len(e.actSlabs) {
		e.actSlabs = append(e.actSlabs, new([actSlabSize]Activity))
	}
	a := &e.actSlabs[chunk][n&(actSlabSize-1)]
	*a = Activity{ID: n, Duration: duration, res: int32(r.ID), critPred: -1}
	e.nacts++
	if label != "" {
		for len(e.labels) < n {
			e.labels = append(e.labels, "")
		}
		e.labels = append(e.labels, label)
	}
	return a
}

// act returns activity i.
func (e *Engine) act(i int32) *Activity {
	return &e.actSlabs[i>>actSlabShift][i&(actSlabSize-1)]
}

// slab returns the registered prefix of activity slab c.
func (e *Engine) slab(c int) []Activity {
	return e.actSlabs[c][:min(actSlabSize, e.nacts-c*actSlabSize)]
}

// numSlabs returns how many activity slabs hold registered activities.
func (e *Engine) numSlabs() int {
	return (e.nacts + actSlabSize - 1) >> actSlabShift
}

// label returns activity i's label ("" when none was given).
func (e *Engine) label(i int32) string {
	if int(i) < len(e.labels) {
		return e.labels[i]
	}
	return ""
}

// AddDep declares that 'before' must finish before 'after' may start.
func (e *Engine) AddDep(before, after *Activity) {
	if before == nil || after == nil {
		panic("simnet: nil activity in dependency")
	}
	e.edges = append(e.edges, edge{int32(before.ID), int32(after.ID)})
	after.npreds++
}

// buildSuccs compacts the edge list into the CSR successor array: one pass
// counts out-degrees, a prefix sum assigns offsets, a second pass fills.
// The prefix-sum pass also queues every activity without predecessors on
// its resource, ready at time 0.
func (e *Engine) buildSuccs() {
	for _, ed := range e.edges {
		e.act(ed.before).succN++
	}
	var off int32
	for c := 0; c < e.numSlabs(); c++ {
		slab := e.slab(c)
		for i := range slab {
			a := &slab[i]
			a.succOff = off
			off += a.succN
			a.succN = 0
			if a.npreds == 0 {
				id := int32(a.ID)
				e.resources[a.res].pending.push(keyed{0, id, id})
			}
		}
	}
	if cap(e.succList) < len(e.edges) {
		e.succList = make([]int32, len(e.edges))
	} else {
		e.succList = e.succList[:len(e.edges)]
	}
	for _, ed := range e.edges {
		b := e.act(ed.before)
		e.succList[b.succOff+b.succN] = ed.after
		b.succN++
	}
}

// Result summarizes a completed simulation.
type Result struct {
	Makespan float64
	Trace    []TraceEntry
}

// Run executes the simulation to completion and returns the makespan. It
// returns an error if not every activity could run, which indicates a
// dependency cycle (a deadlocked schedule). Run consumes the dependence
// counts, so it may be called only once per build; call Reset and rebuild
// to simulate again.
//
// Every activity starts at the current event time: it is queued when its
// last predecessor completes and its resource is tried right then, and a
// resource is tried again the moment it frees. So starts never decrease,
// which is what lets the event queue keep one FIFO per duration (see
// eventQueue).
func (e *Engine) Run() (Result, error) {
	e.buildSuccs()
	e.events.reset(len(e.resources))
	for _, r := range e.resources {
		e.startOn(r, 0)
	}

	completed := 0
	now := 0.0
	for !e.events.empty() {
		id, ri, end := e.events.pop()
		now = end
		a := e.act(id)
		a.done = true
		completed++
		r := e.resources[ri]
		r.busy = false
		r.freeAt = end
		r.lastAct = id
		r.busyTime += a.Duration
		if e.keepTrace {
			e.trace = append(e.trace, TraceEntry{Resource: r.Name, Label: e.label(id), Start: a.Start, End: end, Ready: a.ready})
		}
		if e.keepIntervals {
			e.intervals = append(e.intervals, Interval{Res: r, Ready: a.ready, Start: a.Start, End: end})
		}
		// Queue the successors this completion made ready, noting whose
		// resources gained work: the first such resource, and whether a
		// second one did.
		succs := e.succList[a.succOff : a.succOff+a.succN]
		grew, many := int32(-1), false
		for _, sid := range succs {
			s := e.act(sid)
			s.npreds--
			if end > s.ready {
				s.ready = end
				s.critPred = id
			}
			if s.npreds == 0 {
				e.resources[s.res].pending.push(keyed{s.ready, sid, sid})
				if grew < 0 {
					grew = s.res
				} else if s.res != grew {
					many = true
				}
			}
		}
		// The freed resource chooses first, then each resource that gained
		// work, in the order the successor list first names it: the start
		// sequence breaks ties between equal end times, so the order in
		// which resources start is part of the result. Between events no
		// idle resource has anything ready, so trying one that gained
		// nothing does nothing: one that gained is tried directly, several
		// by walking the list.
		e.startOn(r, now)
		if many {
			for _, sid := range succs {
				e.startOn(e.resources[e.act(sid).res], now)
			}
		} else if grew >= 0 {
			e.startOn(e.resources[grew], now)
		}
	}

	if completed != e.nacts {
		return Result{}, fmt.Errorf("simnet: deadlock, only %d of %d activities completed (dependency cycle?)",
			completed, e.nacts)
	}
	return Result{Makespan: now, Trace: e.trace}, nil
}

// startOn starts r's ready activity with the least (ready time, ID) at now,
// unless r is busy or has nothing ready. The activity waited for the later
// of its last predecessor and r's previous occupant, which the critical
// path records; both lie at or before now.
func (e *Engine) startOn(r *Resource, now float64) {
	if r.busy || len(r.pending) == 0 {
		return
	}
	id := r.pending.pop().id
	a := e.act(id)
	a.critKind = int8(CritDependency)
	if a.critPred < 0 {
		a.critKind = int8(CritStart)
	}
	if r.freeAt > a.ready && r.lastAct >= 0 {
		a.critPred = r.lastAct
		a.critKind = int8(CritResource)
	}
	a.Start = now
	a.End = now + a.Duration
	r.busy = true
	e.events.push(int32(r.ID), id, a.End, a.Duration)
}

// NumActivities returns how many activities have been registered.
func (e *Engine) NumActivities() int { return e.nacts }
