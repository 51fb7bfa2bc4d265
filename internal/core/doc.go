// Package core is the top-level API of the library: it turns a loop nest
// description (iteration space + uniform dependences) into a tiled,
// scheduled, cost-modeled execution plan, and evaluates that plan either
// analytically (the paper's eq. 3/4 models) or on the discrete-event
// cluster simulator.
//
// Typical use:
//
//	p, _ := core.NewProblem(space.MustRect(10000, 1000), deps.Example1Deps())
//	plan, _ := p.Plan(model.Example1Machine(), core.PlanOptions{})
//	pred, _ := plan.Predict()         // eq. 3 vs eq. 4 totals
//	simr, _ := plan.Simulate(...)     // discrete-event makespans
//
// The real (wall-clock, message-passing) execution path lives in
// internal/runner and is driven by `tilebench verify` and cmd/tilenode.
package core
