package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"

	"repro/internal/planapi"
	"repro/internal/sim"
)

// splitmix is the harness's own generator: the request list behind a seed
// (and so the committed golden answers) must never change with the Go
// release, which math/rand's sources do not promise for every constructor.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix) intn(n int64) int64 { return int64(s.next() % uint64(n)) }

var planProcs = [][2]int64{{2, 2}, {4, 4}, {4, 8}, {8, 8}}

const planKJitter = 64

// genPlanRequests returns the first n requests of the seed's list: all
// valid, pairwise distinct by planapi key. The list is prefix-stable, so a
// shorter run answers a prefix of a longer one's list.
//
// What a request costs the service is set by its processor grid, its
// per-rank tile cross-section, its mode and K. Those are drawn from a
// fixed stream, the same for every seed, so that every seed's list has
// the same cost mix and two runs with different seeds measure the same
// workload; the seed only moves each K by less than planKJitter, which
// changes every cache key and no request's cost by more than ~1.5 %.
//
// Per-rank tile sides stay in 2..8: a 1×1 cross-section sends the tiered
// search to its exact tier, which takes seconds per request and would make
// one request dominate a run. K stays in [4096, 32768], inside the
// service's PI·PJ·K ≤ 2²² work bound for every processor grid used.
func genPlanRequests(seed int64, n int) []planapi.PlanRequest {
	shape := splitmix(0x243f6a8885a308d3)
	jitter := splitmix(uint64(seed) * 0x9e3779b97f4a7c15)
	seen := make(map[string]bool, n)
	out := make([]planapi.PlanRequest, 0, n)
	for len(out) < n {
		p := planProcs[shape.intn(int64(len(planProcs)))]
		a, b := 2+shape.intn(7), 2+shape.intn(7)
		k := 4096 + shape.intn(32768-planKJitter-4096+1) + jitter.intn(planKJitter)
		mode := "overlapped"
		if shape.next()&1 == 1 {
			mode = "blocking"
		}
		q := planapi.PlanRequest{
			Version: planapi.Version,
			Space:   []int64{p[0] * a, p[1] * b, k},
			Procs:   []int64{p[0], p[1]},
			Mode:    mode,
		}
		if key := q.Key(); !seen[key] {
			seen[key] = true
			out = append(out, q)
		}
	}
	return out
}

// planAnswer is the part of a PlanResult that must be bit-identical across
// commits: the optimum, its tile volume, its simulated completion time and
// the tier that produced it. Probe counts are provenance and may change
// when the search gets smarter.
type planAnswer struct {
	V    int64   `json:"v"`
	G    int64   `json:"g"`
	T    float64 `json:"t_seconds"`
	Tier string  `json:"tier"`
}

func answerOf(r planapi.PlanResult) planAnswer {
	return planAnswer{V: r.V, G: r.G, T: r.TSeconds, Tier: r.Tier}
}

func (a planAnswer) equal(b planAnswer) bool {
	return a.V == b.V && a.G == b.G && a.Tier == b.Tier &&
		math.Float64bits(a.T) == math.Float64bits(b.T)
}

// referencePlan answers q exactly as `tileplan -optimum` does: the
// request's own sweep on the given cache.
func referencePlan(ctx context.Context, q planapi.PlanRequest, c *sim.Cache) (planAnswer, int, error) {
	sw, err := q.Sweep()
	if err != nil {
		return planAnswer{}, 0, err
	}
	sw.Cache = c
	mode, err := q.SimMode()
	if err != nil {
		return planAnswer{}, 0, err
	}
	out, err := sw.OptimumDetailCtx(ctx, mode)
	if err != nil {
		return planAnswer{}, 0, err
	}
	g := sw.Grid
	return planAnswer{V: out.V, G: (g.I / g.PI) * (g.J / g.PJ) * out.V, T: out.T, Tier: out.Tier.String()}, out.Probes, nil
}

// referencePlans answers the requests at the given indices on a fresh
// unbounded cache, two at a time (the host has two cores).
func referencePlans(ctx context.Context, reqs []planapi.PlanRequest, idx []int) (map[string]planAnswer, error) {
	cache := sim.NewCache()
	out := make(map[string]planAnswer, len(idx))
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := w; n < len(idx); n += 2 {
				q := reqs[idx[n]]
				a, _, err := referencePlan(ctx, q, cache)
				mu.Lock()
				if err != nil && first == nil {
					first = fmt.Errorf("reference for %s: %w", q.Key(), err)
				}
				out[q.Key()] = a
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return out, first
}

// goldenFile is the committed reference for the default seed.
const (
	goldenFile  = "bench/testdata/plan_golden.json"
	goldenSeed  = 1
	goldenCount = 800
)

type goldenPlans struct {
	Seed    int64                 `json:"seed"`
	Answers map[string]planAnswer `json:"answers"` // by planapi key
}

func loadGolden(path string) (map[string]planAnswer, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenPlans
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if g.Seed != goldenSeed {
		return nil, fmt.Errorf("%s: holds seed %d, want %d", path, g.Seed, goldenSeed)
	}
	return g.Answers, nil
}

// writeGolden regenerates the golden file (-write-golden).
func writeGolden(ctx context.Context, path string) error {
	reqs := genPlanRequests(goldenSeed, goldenCount)
	idx := make([]int, len(reqs))
	for i := range idx {
		idx[i] = i
	}
	ans, err := referencePlans(ctx, reqs, idx)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(goldenPlans{Seed: goldenSeed, Answers: ans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// structurallyValid is the check applied to an answer that has no
// reference (see sampleStride): the fields must be consistent with the
// request even when their optimality was not re-derived.
func structurallyValid(q planapi.PlanRequest, r planapi.PlanResult) error {
	mode := q.Mode
	if mode == "" {
		mode = "overlapped"
	}
	ti, tj := q.Space[0]/q.Procs[0], q.Space[1]/q.Procs[1]
	switch {
	case r.Version != planapi.Version:
		return fmt.Errorf("version %d", r.Version)
	case r.Mode != mode:
		return fmt.Errorf("mode %q, asked %q", r.Mode, mode)
	case r.V < 1 || r.V > q.Space[2]:
		return fmt.Errorf("v=%d outside [1, %d]", r.V, q.Space[2])
	case r.G != ti*tj*r.V:
		return fmt.Errorf("g=%d, want %d", r.G, ti*tj*r.V)
	case !(r.TSeconds > 0) || math.IsInf(r.TSeconds, 0):
		return fmt.Errorf("t_seconds=%v", r.TSeconds)
	case r.Tier != "certified" && r.Tier != "exact":
		return fmt.Errorf("tier %q", r.Tier)
	}
	return nil
}
