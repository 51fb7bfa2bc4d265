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
	pending actHeap
	lastAct *Activity // most recently completed activity, for critical paths
	// busyTime accumulates total occupancy for utilization reporting.
	busyTime float64
}

// BusyTime returns the total time the resource spent executing activities
// in the last Run. Dividing by the makespan gives its utilization.
func (r *Resource) BusyTime() float64 { return r.busyTime }

// Activity is a unit of work bound to one resource.
type Activity struct {
	ID       int
	Label    string
	Res      *Resource
	Duration float64

	// Start and End are filled in by Run.
	Start, End float64

	npreds int
	// Successors live in the engine's CSR array: succList[succOff:succOff+succN].
	succOff, succN int32
	ready          float64 // max end time of completed predecessors
	started        bool
	done           bool

	// Critical-path bookkeeping (see critpath.go).
	readyPred *Activity // the predecessor whose completion set `ready`
	critPred  *Activity
	critKind  CritKind
}

// edge is one precedence constraint, buffered until Run builds the CSR
// successor lists.
type edge struct {
	before, after *Activity
}

// Slab sizes: large enough that slab bookkeeping is negligible, small
// enough that a tiny simulation doesn't waste memory.
const (
	actSlabSize = 4096
	resSlabSize = 64
)

// Engine owns the resources and activities of one simulation.
type Engine struct {
	resources  []*Resource
	activities []*Activity

	// Chunked arenas backing the pointers above. Chunks are never
	// reallocated, so &slab[i] stays valid while the graph grows; Reset
	// rewinds the counters and reuses the same chunks.
	actSlabs [][]Activity
	resSlabs [][]Resource

	edges    []edge
	succList []*Activity
	events   eventHeap

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
	e.activities = e.activities[:0]
	e.edges = e.edges[:0]
	e.succList = e.succList[:0]
	e.events = e.events[:0]
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
	if n := len(e.activities) + activities; cap(e.activities) < n {
		grown := make([]*Activity, len(e.activities), n)
		copy(grown, e.activities)
		e.activities = grown
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
	*r = Resource{ID: n, Name: name, pending: pending}
	e.resources = append(e.resources, r)
	return r
}

// NewActivity registers an activity of the given duration on resource r.
// Durations must be non-negative; zero-duration activities are permitted
// (useful as synchronization points).
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
	n := len(e.activities)
	chunk, idx := n/actSlabSize, n%actSlabSize
	if chunk == len(e.actSlabs) {
		e.actSlabs = append(e.actSlabs, make([]Activity, actSlabSize))
	}
	a := &e.actSlabs[chunk][idx]
	*a = Activity{ID: n, Label: label, Res: r, Duration: duration}
	e.activities = append(e.activities, a)
	return a
}

// AddDep declares that 'before' must finish before 'after' may start.
func (e *Engine) AddDep(before, after *Activity) {
	if before == nil || after == nil {
		panic("simnet: nil activity in dependency")
	}
	e.edges = append(e.edges, edge{before, after})
	after.npreds++
}

// buildSuccs compacts the edge list into the CSR successor array: one pass
// counts out-degrees, a prefix sum assigns offsets, a second pass fills.
func (e *Engine) buildSuccs() {
	for i := range e.edges {
		e.edges[i].before.succN++
	}
	var off int32
	for _, a := range e.activities {
		a.succOff = off
		off += a.succN
		a.succN = 0
	}
	if cap(e.succList) < len(e.edges) {
		e.succList = make([]*Activity, len(e.edges))
	} else {
		e.succList = e.succList[:len(e.edges)]
	}
	for _, ed := range e.edges {
		b := ed.before
		e.succList[b.succOff+b.succN] = ed.after
		b.succN++
	}
}

// succs returns a's successor list.
func (e *Engine) succs(a *Activity) []*Activity {
	return e.succList[a.succOff : a.succOff+a.succN]
}

// completion is an entry in the event heap.
type completion struct {
	t   float64
	seq int
	act *Activity
}

// eventHeap is a binary min-heap over (time, sequence). The push/pop
// functions are hand-rolled instead of container/heap because the latter
// boxes every pushed element into an interface — one allocation per
// scheduled event, the dominant churn of large sweeps.
type eventHeap []completion

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(c completion) {
	*h = append(*h, c)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *eventHeap) pop() completion {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// actHeap orders ready activities by (ready time, ID); same hand-rolled
// heap as eventHeap for the same allocation reason.
type actHeap []*Activity

func (h actHeap) less(i, j int) bool {
	if h[i].ready != h[j].ready {
		return h[i].ready < h[j].ready
	}
	return h[i].ID < h[j].ID
}

func (h *actHeap) push(a *Activity) {
	*h = append(*h, a)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *actHeap) pop() *Activity {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil // let the engine's Reset-retained backing array release it
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
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
func (e *Engine) Run() (Result, error) {
	e.buildSuccs()
	e.events = e.events[:0]
	events := &e.events
	seq := 0
	now := 0.0

	startOn := func(r *Resource) {
		for !r.busy && len(r.pending) > 0 {
			a := r.pending.pop()
			start := a.ready
			a.critPred = a.readyPred
			a.critKind = CritDependency
			if a.readyPred == nil {
				a.critKind = CritStart
			}
			if r.freeAt > start {
				start = r.freeAt
				if r.lastAct != nil {
					a.critPred = r.lastAct
					a.critKind = CritResource
				}
			}
			if start < now {
				start = now
			}
			a.Start = start
			a.End = start + a.Duration
			a.started = true
			r.busy = true
			events.push(completion{t: a.End, seq: seq, act: a})
			seq++
		}
	}

	// Seed: all activities with no predecessors are ready at t=0.
	for _, a := range e.activities {
		if a.npreds == 0 {
			a.ready = 0
			a.Res.pending.push(a)
		}
	}
	for _, r := range e.resources {
		startOn(r)
	}

	completed := 0
	for len(*events) > 0 {
		ev := events.pop()
		a := ev.act
		now = ev.t
		a.done = true
		completed++
		r := a.Res
		r.busy = false
		r.freeAt = a.End
		r.lastAct = a
		r.busyTime += a.Duration
		if e.keepTrace {
			e.trace = append(e.trace, TraceEntry{Resource: r.Name, Label: a.Label, Start: a.Start, End: a.End, Ready: a.ready})
		}
		if e.keepIntervals {
			e.intervals = append(e.intervals, Interval{Res: r, Ready: a.ready, Start: a.Start, End: a.End})
		}
		succs := e.succs(a)
		for _, s := range succs {
			s.npreds--
			if a.End > s.ready {
				s.ready = a.End
				s.readyPred = a
			}
			if s.npreds == 0 {
				s.Res.pending.push(s)
			}
		}
		// The freed resource and any resources that gained ready work may
		// start something. Trying all successors' resources plus r covers
		// every resource whose pending set changed.
		startOn(r)
		for _, s := range succs {
			startOn(s.Res)
		}
	}

	if completed != len(e.activities) {
		return Result{}, fmt.Errorf("simnet: deadlock, only %d of %d activities completed (dependency cycle?)",
			completed, len(e.activities))
	}
	return Result{Makespan: now, Trace: e.trace}, nil
}

// NumActivities returns how many activities have been registered.
func (e *Engine) NumActivities() int { return len(e.activities) }

// NumResources returns how many resources have been registered.
func (e *Engine) NumResources() int { return len(e.resources) }
