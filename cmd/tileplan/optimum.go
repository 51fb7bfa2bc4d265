package main

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/planapi"
	"repro/internal/sim"
)

// runOptimum implements -optimum: the tiered optimum-tile-height query for
// a 3-D rectangular space on a PIxPJ processor grid. For each schedule it
// prints the analytic seed, the answer, which tier produced it, and what
// the query cost in DES evaluations — the planning-service workflow the
// tiered estimator exists for.
func runOptimum(sizes []int64, m model.Machine) error {
	if len(sizes) != 3 {
		return fmt.Errorf("-optimum needs a 3-D space (IxJxK), got %dD %v", len(sizes), sizes)
	}
	procs, err := parseSizes(*procsFlag)
	if err != nil {
		return fmt.Errorf("-procs: %w", err)
	}
	if len(procs) != 2 {
		return fmt.Errorf("-procs must be PIxPJ, got %v", procs)
	}
	// The served query's own constructor, on this command's machine (a
	// machine file included) and without the service's request limits.
	q := planapi.PlanRequest{Space: sizes, Procs: procs, Exact: *exactFlag}
	s, err := q.Sweep()
	if err != nil {
		return err
	}
	s.Machine, s.Cache = m, sim.NewCache()
	g := s.Grid
	fmt.Printf("optimum tile height for %dx%dx%d on %dx%d processors:\n",
		g.I, g.J, g.K, g.PI, g.PJ)
	for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
		seed := planapi.SeedFor(g, m, mode)
		pre := s.Cache.Stats()
		out, err := s.OptimumDetailCtx(context.Background(), mode)
		if err != nil {
			return err
		}
		post := s.Cache.Stats()
		detail := fmt.Sprintf("tier=%s", out.Tier)
		if out.FallbackReason != "" {
			detail += fmt.Sprintf(" (%s)", out.FallbackReason)
		}
		fmt.Printf("  %-10s V=%-6d t=%.6fs  analytic seed V*≈%.0f  %s, %d DES evaluations\n",
			mode, out.V, out.T, seed, detail, post.Evals-pre.Evals)
	}
	return nil
}
