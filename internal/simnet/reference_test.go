package simnet

import (
	"fmt"
	"math/rand"
	"testing"
)

// refGraph is a random activity graph, described the way a builder would
// register it: activity i runs on resource res[i] for dur[i] (before any
// perturbation), and edges are AddDep calls in order.
type refGraph struct {
	nres  int
	res   []int
	dur   []float64
	edges [][2]int
}

// randGraph draws a DAG of up to 80 activities over 2–6 resources. Edges
// run from lower to higher index, some repeated, so each activity has a
// list of successors with duplicates, as builders produce; the density
// varies, and dense graphs make completions that hand work to several idle
// resources at once. draw picks each activity's duration.
func randGraph(r *rand.Rand, draw func() float64) refGraph {
	g := refGraph{nres: 2 + r.Intn(5)}
	n := 1 + r.Intn(80)
	for i := 0; i < n; i++ {
		g.res = append(g.res, r.Intn(g.nres))
		g.dur = append(g.dur, draw())
	}
	p := float64(2+r.Intn(8)) / float64(n) // 1–4.5 successors per activity on average
	for b := 0; b < n; b++ {
		for a := b + 1; a < n; a++ {
			if r.Float64() < p {
				g.edges = append(g.edges, [2]int{b, a})
				if r.Intn(10) == 0 {
					g.edges = append(g.edges, [2]int{b, a})
				}
			}
		}
	}
	// Shuffle the calls, so successor lists are not sorted by ID.
	r.Shuffle(len(g.edges), func(i, j int) { g.edges[i], g.edges[j] = g.edges[j], g.edges[i] })
	return g
}

// refRun is one activity's outcome under the reference scheduler.
type refRun struct {
	start, end float64
	ready      float64
	critPred   int
	critKind   CritKind
}

// referenceSchedule runs g by the rule the engine documents, naively in
// O(n²): a resource that is free takes, among its activities whose
// predecessors have all completed, the one with the least (ready time, ID),
// where the ready time is the latest predecessor end (0 for none), and
// starts it at the latest of now, its ready time and the resource's last
// end. Completions are processed one at a time in (end, start sequence)
// order. At time 0 every resource chooses, in resource order; after a
// completion the freed resource chooses first, then the resource of every
// successor of the completed activity, in the order its AddDep calls named
// them. It returns each activity's outcome and the completion order.
func referenceSchedule(g refGraph) ([]refRun, []int) {
	n := len(g.res)
	succs := make([][]int, n)
	npreds := make([]int, n)
	for _, e := range g.edges {
		succs[e[0]] = append(succs[e[0]], e[1])
		npreds[e[1]]++
	}
	runs := make([]refRun, n)
	for i := range runs {
		runs[i].critPred = -1
	}
	readyPred := make([]int, n)
	for i := range readyPred {
		readyPred[i] = -1
	}
	started := make([]bool, n)
	done := make([]bool, n)
	seq := make([]int, n)
	busy := make([]bool, g.nres)
	freeAt := make([]float64, g.nres)
	lastAct := make([]int, g.nres)
	for i := range lastAct {
		lastAct[i] = -1
	}
	now, nseq := 0.0, 0
	tryStart := func(r int) {
		if busy[r] {
			return
		}
		pick := -1
		for i := 0; i < n; i++ {
			if g.res[i] != r || started[i] || npreds[i] > 0 {
				continue
			}
			if pick < 0 || runs[i].ready < runs[pick].ready {
				pick = i
			}
		}
		if pick < 0 {
			return
		}
		a := &runs[pick]
		a.critPred, a.critKind = readyPred[pick], CritDependency
		if a.critPred < 0 {
			a.critKind = CritStart
		}
		a.start = max(now, a.ready)
		if freeAt[r] > a.ready {
			a.start = max(a.start, freeAt[r])
			if lastAct[r] >= 0 {
				a.critPred, a.critKind = lastAct[r], CritResource
			}
		}
		a.end = a.start + g.dur[pick]
		started[pick], busy[r] = true, true
		seq[pick] = nseq
		nseq++
	}
	for r := 0; r < g.nres; r++ {
		tryStart(r)
	}
	var order []int
	for {
		next := -1
		for i := 0; i < n; i++ {
			if !started[i] || done[i] {
				continue
			}
			if next < 0 || runs[i].end < runs[next].end ||
				runs[i].end == runs[next].end && seq[i] < seq[next] {
				next = i
			}
		}
		if next < 0 {
			return runs, order
		}
		a := runs[next]
		now = a.end
		done[next] = true
		order = append(order, next)
		r := g.res[next]
		busy[r], freeAt[r], lastAct[r] = false, a.end, next
		for _, s := range succs[next] {
			npreds[s]--
			if a.end > runs[s].ready {
				runs[s].ready = a.end
				readyPred[s] = next
			}
		}
		tryStart(r)
		for _, s := range succs[next] {
			tryStart(g.res[s])
		}
	}
}

// TestPropEngineMatchesReferenceScheduler: on random DAGs over 2–6
// resources, the engine's per-activity start and end, its critical path and
// its interval log (completion order) equal the naive reference scheduler
// above. Three duration regimes: three values only, so one resource
// streams many equal-duration activities and end times tie exactly; all
// distinct; and three values rescaled per resource by a SetPerturb hook.
func TestPropEngineMatchesReferenceScheduler(t *testing.T) {
	r := rand.New(rand.NewSource(46))
	threeValues := func() float64 {
		sets := [][3]float64{{1, 2, 3}, {0, 1, 2}, {0.5, 0.25, 1.5}}
		return sets[r.Intn(len(sets))][r.Intn(3)]
	}
	// The factors are powers of two, so perturbed durations stay exact.
	perturb := func(res *Resource, d float64) float64 { return d * float64(int(1)<<(res.ID%3)) }
	variants := []struct {
		name    string
		draw    func() float64
		perturb PerturbFunc
	}{
		{"three-values", threeValues, nil},
		{"distinct", func() float64 { return 0.5 + r.Float64() }, nil},
		{"perturbed", threeValues, perturb},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for c := 0; c < 300; c++ {
				g := randGraph(r, v.draw)
				if err := checkAgainstReference(g, v.perturb); err != nil {
					t.Fatalf("case %d (%d activities, %d resources, %d edges): %v",
						c, len(g.res), g.nres, len(g.edges), err)
				}
			}
		})
	}
}

// checkAgainstReference builds g on an engine with the hook perturb (nil
// for none) and compares the run with referenceSchedule over the perturbed
// durations.
func checkAgainstReference(g refGraph, perturb PerturbFunc) error {
	e := NewEngine()
	e.KeepIntervals(true)
	e.KeepTrace(true)
	e.SetPerturb(perturb)
	var res []*Resource
	for i := 0; i < g.nres; i++ {
		res = append(res, e.NewResource(fmt.Sprintf("r%d", i)))
	}
	var acts []*Activity
	for i := range g.res {
		acts = append(acts, e.NewActivity(res[g.res[i]], g.dur[i], fmt.Sprintf("a%d", i)))
	}
	for _, ed := range g.edges {
		e.AddDep(acts[ed[0]], acts[ed[1]])
	}
	out, err := e.Run()
	if err != nil {
		return err
	}
	eff := g
	if perturb != nil {
		eff.dur = make([]float64, len(g.dur))
		for i, d := range g.dur {
			eff.dur[i] = perturb(res[g.res[i]], d)
		}
	}
	want, order := referenceSchedule(eff)

	makespan := 0.0
	for i, a := range acts {
		if a.Start != want[i].start || a.End != want[i].end {
			return fmt.Errorf("activity %d ran [%g, %g], reference [%g, %g]",
				i, a.Start, a.End, want[i].start, want[i].end)
		}
		makespan = max(makespan, a.End)
	}
	if out.Makespan != makespan {
		return fmt.Errorf("makespan %g, reference %g", out.Makespan, makespan)
	}

	iv := e.Intervals()
	if len(iv) != len(order) {
		return fmt.Errorf("%d intervals, reference completed %d", len(iv), len(order))
	}
	for k, i := range order {
		w := want[i]
		if got := iv[k]; got.Res.ID != g.res[i] || got.Ready != w.ready || got.Start != w.start || got.End != w.end {
			return fmt.Errorf("interval %d = {r%d ready %g [%g, %g]}, reference completes a%d {r%d ready %g [%g, %g]}",
				k, got.Res.ID, got.Ready, got.Start, got.End, i, g.res[i], w.ready, w.start, w.end)
		}
		if out.Trace[k].Label != fmt.Sprintf("a%d", i) {
			return fmt.Errorf("completion %d is %s, reference a%d", k, out.Trace[k].Label, i)
		}
	}

	// The critical path runs back from the first activity, by ID, to end
	// last.
	last := 0
	for i := range want {
		if want[i].end > want[last].end {
			last = i
		}
	}
	var chain []int
	for i := last; i >= 0; i = want[i].critPred {
		chain = append([]int{i}, chain...)
	}
	path := e.CriticalPath()
	if len(path) != len(chain) {
		return fmt.Errorf("critical path has %d steps, reference %d", len(path), len(chain))
	}
	for k, i := range chain {
		w := want[i]
		step := path[k]
		if step.Label != fmt.Sprintf("a%d", i) || step.Start != w.start || step.End != w.end || step.Kind != w.critKind {
			return fmt.Errorf("critical step %d = {%s [%g, %g] %v}, reference {a%d [%g, %g] %v}",
				k, step.Label, step.Start, step.End, step.Kind, i, w.start, w.end, w.critKind)
		}
	}
	return nil
}
