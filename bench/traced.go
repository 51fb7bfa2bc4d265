package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/estimate"
	"repro/internal/ilmath"
	"repro/internal/mp"
	"repro/internal/planapi"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stencil"
)

// tracedComm is the harness's own mp.Comm decorator: one span per
// Send/Recv/Isend/Irecv/Wait/Barrier under the rank's runner.Run span,
// plus the per-rank traffic and waiting totals.
type tracedComm struct {
	mp.Comm
	rec    *recorder
	parent int
	op     int

	msgs, bytes                           int64
	sendBusy, recvWait, sendWait, barrier time.Duration
}

func (c *tracedComm) span(name string) (int, time.Time) {
	return c.rec.begin("mp", name, c.parent, c.op), time.Now()
}

func (c *tracedComm) Send(dst, tag int, data []byte) error {
	id, t0 := c.span("Send")
	err := c.Comm.Send(dst, tag, data)
	c.rec.end(id)
	c.sendBusy += time.Since(t0)
	c.msgs++
	c.bytes += int64(len(data))
	return err
}

func (c *tracedComm) Recv(src, tag int, buf []byte) (mp.Status, error) {
	id, t0 := c.span("Recv")
	st, err := c.Comm.Recv(src, tag, buf)
	c.rec.end(id)
	c.recvWait += time.Since(t0)
	return st, err
}

func (c *tracedComm) Isend(dst, tag int, data []byte) (mp.Request, error) {
	id, t0 := c.span("Isend")
	req, err := c.Comm.Isend(dst, tag, data)
	c.rec.end(id)
	c.sendBusy += time.Since(t0)
	c.msgs++
	c.bytes += int64(len(data))
	if err != nil {
		return nil, err
	}
	return &tracedReq{Request: req, c: c, wait: &c.sendWait}, nil
}

func (c *tracedComm) Irecv(src, tag int, buf []byte) (mp.Request, error) {
	id, _ := c.span("Irecv")
	req, err := c.Comm.Irecv(src, tag, buf)
	c.rec.end(id)
	if err != nil {
		return nil, err
	}
	return &tracedReq{Request: req, c: c, wait: &c.recvWait}, nil
}

func (c *tracedComm) Barrier() error {
	id, t0 := c.span("Barrier")
	err := c.Comm.Barrier()
	c.rec.end(id)
	c.barrier += time.Since(t0)
	return err
}

type tracedReq struct {
	mp.Request
	c    *tracedComm
	wait *time.Duration
}

func (r *tracedReq) Wait() (mp.Status, error) {
	id, t0 := r.c.span("Wait")
	st, err := r.Request.Wait()
	r.c.rec.end(id)
	*r.wait += time.Since(t0)
	return st, err
}

// countingKernel only counts Eval calls: timing a ~250 ns call with two
// clock reads would distort it, so kernel time is the count times the
// ladder's stencil.sqrt3d_ns_per_point. Each rank owns its counter; a
// shared one would have the ranks fight over a cache line per point.
type countingKernel struct {
	stencil.Kernel
	evals *int64
}

func (k countingKernel) Eval(j ilmath.Vec, get func(ilmath.Vec) float64) float64 {
	*k.evals++
	return k.Kernel.Eval(j, get)
}

// nodeInProcess runs g once per schedule with both ranks as goroutines
// over loopback mp.ConnectTCP (the `tilenode -spawn` path). With traced
// set, every Comm and the kernel are decorated. It returns the summed
// rank-0 elapsed time, the spans, and the per-rank mp totals.
func nodeInProcess(g nodeGeom, traced bool) (elapsed float64, spans []span, comms []*tracedComm, evals int64, err error) {
	epoch := time.Now()
	var recs []*recorder
	for i, mode := range []runner.Mode{runner.Blocking, runner.Overlapped} {
		cfg := g.config(mode)
		addrs, aerr := loopbackAddrs(g.ranks())
		if aerr != nil {
			return 0, nil, nil, 0, aerr
		}
		errs := make([]error, g.ranks())
		rankRecs := make([]*recorder, g.ranks())
		rankComms := make([]*tracedComm, g.ranks())
		rankEvals := make([]int64, g.ranks())
		var rank0 float64
		var wg sync.WaitGroup
		for r := 0; r < g.ranks(); r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				c, cerr := mp.ConnectTCP(r, g.ranks(), addrs, &mp.TCPOptions{Deadline: ladderDeadline})
				if cerr != nil {
					errs[r] = cerr
					return
				}
				defer c.Close()
				comm, cfg := c, cfg
				root := -1
				if traced {
					op := i*g.ranks() + r
					rec := newRecorder(epoch)
					root = rec.begin("runner", "Run/"+mode.String(), -1, op)
					tc := &tracedComm{Comm: c, rec: rec, parent: root, op: op}
					rankRecs[r], rankComms[r] = rec, tc
					comm = tc
					cfg.Kernel = countingKernel{cfg.Kernel, &rankEvals[r]}
				}
				_, stats, rerr := runner.Run(comm, cfg)
				if traced {
					rankRecs[r].end(root)
				}
				errs[r] = rerr
				if r == 0 {
					rank0 = stats.Elapsed.Seconds()
				}
			}(r)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				return 0, nil, nil, 0, e
			}
		}
		elapsed += rank0
		if traced {
			recs = append(recs, rankRecs...)
			comms = append(comms, rankComms...)
			for _, n := range rankEvals {
				evals += n
			}
		}
	}
	return elapsed, mergeSpans(recs...), comms, evals, nil
}

// serveInProcess answers order (indices into bodies) the way tileserve's
// handler does — decode, tiered optimum on a shared cache, encode — one
// request at a time like the one client of the end-to-end run. With traced
// set, each step is a span under the request's root span, and the estimate
// config's Probe and Model are wrapped so that simulator and model calls
// show up as children of estimate.Optimum. It returns the wall time, the
// latencies in ms and the spans.
func serveInProcess(ctx context.Context, bodies [][]byte, order []int, cache *sim.Cache, traced bool) (wall float64, lat []float64, spans []span, err error) {
	rec := newRecorder(time.Now())
	var out bytes.Buffer
	start := time.Now()
	for n, i := range order {
		t0 := time.Now()
		if traced {
			err = tracedRequest(ctx, rec, n, bodies[i], cache, &out)
		} else {
			err = plainRequest(ctx, bodies[i], cache, &out)
		}
		if err != nil {
			return 0, nil, nil, err
		}
		lat = append(lat, time.Since(t0).Seconds()*1e3)
	}
	return time.Since(start).Seconds(), lat, mergeSpans(rec), nil
}

func plainRequest(ctx context.Context, body []byte, cache *sim.Cache, out *bytes.Buffer) error {
	q, err := planapi.DecodeRequest(bytes.NewReader(body))
	if err != nil {
		return err
	}
	o, err := tracedOptimum(ctx, q, cache, nil)
	if err != nil {
		return err
	}
	out.Reset()
	return planapi.EncodeResult(out, resultOf(q, o))
}

func tracedRequest(ctx context.Context, rec *recorder, op int, body []byte, cache *sim.Cache, out *bytes.Buffer) error {
	root := rec.begin("harness", "request", -1, op)
	defer rec.end(root)

	id := rec.begin("planapi", "DecodeRequest", root, op)
	q, err := planapi.DecodeRequest(bytes.NewReader(body))
	rec.end(id)
	if err != nil {
		return err
	}

	opt := rec.begin("estimate", "Optimum", root, op)
	o, err := tracedOptimum(ctx, q, cache, func(cfg *estimate.Config) {
		probe, model, exact := cfg.Probe, cfg.Model, cfg.Exact
		cfg.Probe = func(v int64) (float64, error) {
			id := rec.begin("sim", "Cache.SimulateGridCtx", opt, op)
			defer rec.end(id)
			return probe(v)
		}
		cfg.Model = func(v int64) float64 {
			id := rec.begin("model", "Predict", opt, op)
			defer rec.end(id)
			return model(v)
		}
		cfg.Exact = func() (int64, float64, error) {
			id := rec.begin("sim", "Sweep.OptimumExactCtx", opt, op)
			defer rec.end(id)
			return exact()
		}
	})
	rec.end(opt)
	if err != nil {
		return err
	}

	id = rec.begin("planapi", "EncodeResult", root, op)
	out.Reset()
	err = planapi.EncodeResult(out, resultOf(q, o))
	rec.end(id)
	return err
}

// resultOf assembles the wire answer as tileserve's handler does.
func resultOf(q planapi.PlanRequest, o estimate.Outcome) planapi.PlanResult {
	ti, tj := q.Space[0]/q.Procs[0], q.Space[1]/q.Procs[1]
	mode := q.Mode
	if mode == "" {
		mode = "overlapped"
	}
	return planapi.PlanResult{
		Version: planapi.Version, Mode: mode,
		V: o.V, G: ti * tj * o.V, TSeconds: o.T,
		Tier: o.Tier.String(), Probes: o.Probes, FallbackReason: o.FallbackReason,
	}
}

// tracedShare is the fraction of -seconds the traced pass spends on its
// from-outside measurements (process-level layer metrics); the in-process
// passes and the ladder take the rest of its time.
const tracedShare = 0.25

// overheadRounds is how often the in-process passes run untraced and
// traced in alternation. The overhead compares the fastest of each side:
// both sides do identical work every round, so the minimum is the round
// least disturbed by the host.
const overheadRounds = 2

func minPositive(a, b float64) float64 {
	if a == 0 || b < a {
		return b
	}
	return a
}

// traceLayers are the layers a self-time share is reported for.
var traceLayers = []string{"stencil", "runner", "mp", "planapi", "estimate", "sim", "model", "harness"}

// runTraced is the per-layer pass for one workload: a short from-outside
// run for the process-level numbers, the workload's operations re-executed
// in-process once untraced and once traced, and the ladder.
func runTraced(ctx context.Context, e *env, w string, seed int64, seconds float64, host hostInfo, spansOut string) *pass {
	p := newPass()
	for _, name := range perLayerNames {
		p.set(name, 0) // a layer this workload does not touch reports zero work
	}
	put := func(m map[string]float64) {
		for k, v := range m {
			if _, ok := metricUnits[k]; !ok {
				p.failf("internal: unknown per-layer metric %q", k)
				continue
			}
			p.set(k, v)
		}
	}

	outside := runEndToEnd(ctx, e, w, seed, seconds*tracedShare)
	p.Attempted, p.Failed, p.Reasons = outside.Attempted, outside.Failed, outside.Reasons
	put(outside.layer)

	// The ladder does not depend on the workload; a run over several
	// workloads climbs it once.
	if e.ladder == nil {
		coldReqs := genPlanRequests(seed, int(coldPerSecond*seconds*tracedShare))
		var err error
		if e.ladder, err = runLadder(ctx, e.scratch, coldReqs); err != nil {
			p.failf("ladder: %v", err)
		}
	}
	rungs := e.ladder
	put(rungs)

	var spans []span
	var evals int64
	var untraced, traced float64
	var err error
	extra := map[string]float64{}
	switch w {
	case "node3d-coarse", "node3d-fine":
		g := coarseGeom
		if w == "node3d-fine" {
			g = fineGeom
		}
		spans, evals, untraced, traced, err = traceNode(g, extra)
	default:
		spans, untraced, traced, err = traceServe(ctx, w == "serve-hot", seed, seconds, outside, extra)
	}
	if err != nil {
		p.failf("traced run: %v", err)
	}
	put(extra)
	if untraced > 0 {
		p.set("obs.trace_overhead_pct", 100*(traced/untraced-1))
	}

	self, root := selfTimes(spans)
	if evals > 0 {
		// The kernel is counted, not timed: its share, evaluations × the
		// ladder's cost per point, moves from the runner's self time (which
		// contains it) to the stencil layer, and never exceeds it.
		kernel := min(int64(float64(evals)*rungs["stencil.sqrt3d_ns_per_point"]), self["runner"])
		self["stencil"], self["runner"] = kernel, self["runner"]-kernel
		p.set("runner.self_s", float64(self["runner"])/1e9/2) // per job, as the mp.* totals
	}
	if root > 0 {
		var covered int64
		for _, layer := range traceLayers {
			p.set("trace.self_pct."+layer, 100*float64(self[layer])/float64(root))
			if layer != "harness" {
				covered += self[layer]
			}
		}
		p.set("trace.root_s", float64(root)/1e9)
		p.set("trace.coverage_pct", 100*float64(covered)/float64(root))
		p.set("trace.spans", float64(len(spans)))
		fmt.Printf("== %s: self time per layer (root spans %.3f s, %d spans) ==\n", w, float64(root)/1e9, len(spans))
		for _, layer := range traceLayers {
			if self[layer] != 0 {
				fmt.Printf("  %-10s %10.4f s %6.1f %%\n", layer, float64(self[layer])/1e9, 100*float64(self[layer])/float64(root))
			}
		}
	}
	if spansOut != "" {
		if err := writeSpansFile(spansOut, spans); err != nil {
			p.failf("%v", err)
		}
	}

	p.set("host.build_s", host.BuildS)
	p.set("host.nproc", float64(host.NProc))
	p.set("host.loadavg_start", host.LoadAvgStart)
	p.set("bench.fail_share", float64(p.Failed)/float64(max(p.Attempted, 1)))
	p.Correct = p.Failed == 0
	return p
}

// traceNode runs the geometry in-process untraced and traced. The spans
// split each runner.Run into mp time and the rest; evals is how many
// kernel evaluations the rest contains (see countingKernel).
func traceNode(g nodeGeom, extra map[string]float64) (spans []span, evals int64, untraced, traced float64, err error) {
	var comms []*tracedComm
	for round := 0; round < overheadRounds; round++ {
		u, _, _, _, err := nodeInProcess(g, false)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		var t float64
		if t, spans, comms, evals, err = nodeInProcess(g, true); err != nil {
			return nil, 0, 0, 0, err
		}
		untraced, traced = minPositive(untraced, u), minPositive(traced, t)
	}
	var msgs, bytes float64
	var sendBusy, recvWait, sendWait, barrier time.Duration
	for _, c := range comms {
		msgs += float64(c.msgs)
		bytes += float64(c.bytes)
		sendBusy += c.sendBusy
		recvWait += c.recvWait
		sendWait += c.sendWait
		barrier += c.barrier
	}
	// Per job: summed over the ranks, averaged over the two schedules.
	const jobs = 2
	extra["mp.msgs"] = msgs / jobs
	extra["mp.bytes"] = bytes / jobs
	extra["mp.send_busy_s"] = sendBusy.Seconds() / jobs
	extra["mp.recv_wait_s"] = recvWait.Seconds() / jobs
	extra["mp.send_wait_s"] = sendWait.Seconds() / jobs
	extra["mp.barrier_s"] = barrier.Seconds() / jobs

	return spans, evals, untraced, traced, nil
}

// traceServe re-executes the workload's requests in-process: a quarter of
// the cold list, or the warmed pool drawn from as the hot workload does.
func traceServe(ctx context.Context, hot bool, seed int64, seconds float64, outside *pass, extra map[string]float64) (spans []span, untraced, traced float64, err error) {
	n := int(coldPerSecond * seconds * tracedShare)
	if hot {
		n = hotPool
	}
	reqs := genPlanRequests(seed, n)
	bodies, err := encodeRequests(reqs)
	if err != nil {
		return nil, 0, 0, err
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	run := func(traced bool) (float64, []float64, []span, error) {
		cache := sim.NewCacheBounded(4096) // tileserve's default bound
		if !hot {
			return serveInProcess(ctx, bodies, order, cache, traced)
		}
		if _, _, _, err := serveInProcess(ctx, bodies, order, cache, false); err != nil {
			return 0, nil, nil, err
		}
		return serveInProcess(ctx, bodies, hotDraws(seed, int(hotPerSecond*seconds*tracedShare)), cache, traced)
	}
	var lat []float64
	for round := 0; round < overheadRounds; round++ {
		var u, t float64
		if u, lat, _, err = run(false); err != nil {
			return nil, 0, 0, err
		}
		if t, _, spans, err = run(true); err != nil {
			return nil, 0, 0, err
		}
		untraced, traced = minPositive(untraced, u), minPositive(traced, t)
	}
	if hot {
		// What the process boundary, HTTP and admission add to a warm answer.
		p50 := outside.Metrics["latency_p50_ms"].Value
		extra["tileserve.http_overhead_us"] = (p50 - median(lat)) * 1e3
	}
	return spans, untraced, traced, nil
}
