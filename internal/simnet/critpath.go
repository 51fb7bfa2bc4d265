package simnet

// Critical-path extraction: after Run, every activity knows which single
// predecessor determined its start time — either a dependency (the last
// dataflow predecessor to finish) or the previous occupant of its resource
// (contention). Walking those edges back from the last-finishing activity
// yields the chain that fixes the makespan, separating "the schedule is
// dependence-bound" from "a resource is saturated".

// CritKind classifies why an activity started when it did.
type CritKind int

const (
	// CritStart marks a chain head: the activity started at time 0.
	CritStart CritKind = iota
	// CritDependency: the activity waited for a dataflow predecessor.
	CritDependency
	// CritResource: the activity waited for its resource to free up.
	CritResource
)

func (k CritKind) String() string {
	switch k {
	case CritStart:
		return "start"
	case CritDependency:
		return "dependency"
	case CritResource:
		return "resource"
	default:
		return "unknown"
	}
}

// CritStep is one element of a critical path.
type CritStep struct {
	Label    string
	Resource string
	Start    float64
	End      float64
	Kind     CritKind // why this step could not start earlier
}

// CriticalPath returns the chain of activities fixing the makespan, in
// execution order. It must be called after Run; it returns nil on an empty
// or unrun engine.
func (e *Engine) CriticalPath() []CritStep {
	last := int32(-1)
	for c := 0; c < e.numSlabs(); c++ {
		slab := e.slab(c)
		for i := range slab {
			a := &slab[i]
			if !a.done {
				return nil
			}
			if last < 0 || a.End > e.act(last).End {
				last = int32(a.ID)
			}
		}
	}
	if last < 0 {
		return nil
	}
	var rev []int32
	for i := last; i >= 0; i = e.act(i).critPred {
		rev = append(rev, i)
	}
	out := make([]CritStep, len(rev))
	for k := range rev {
		i := rev[len(rev)-1-k]
		a := e.act(i)
		out[k] = CritStep{
			Label:    e.label(i),
			Resource: e.resources[a.res].Name,
			Start:    a.Start,
			End:      a.End,
			Kind:     CritKind(a.critKind),
		}
	}
	return out
}

// CriticalPathStats summarizes a critical path: total time attributable to
// dependency waits versus resource contention versus the work itself.
type CriticalPathStats struct {
	Steps          int
	WorkTime       float64 // Σ durations along the path
	DependencyHops int
	ResourceHops   int
}

// Stats aggregates a critical path.
func Stats(path []CritStep) CriticalPathStats {
	var s CriticalPathStats
	s.Steps = len(path)
	for _, p := range path {
		s.WorkTime += p.End - p.Start
		switch p.Kind {
		case CritDependency:
			s.DependencyHops++
		case CritResource:
			s.ResourceHops++
		}
	}
	return s
}
