package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/planapi"
)

// metric is one reported number. Q1, Q3 and N describe the in-run sample
// a median rests on; they are zero for counts and single measurements.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// pass is the outcome of one (workload, trace on/off) run.
type pass struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Reasons   []string          `json:"failure_reasons,omitempty"`
	// layer carries process-level numbers an end-to-end style run yields
	// for the per-layer report (RSS, server counters, tail latencies); the
	// traced run merges them into its metrics.
	layer map[string]float64
}

func newPass() *pass {
	return &pass{Metrics: make(map[string]metric), layer: make(map[string]float64)}
}

func (p *pass) failf(format string, args ...any) {
	p.Failed++
	if len(p.Reasons) < 8 {
		p.Reasons = append(p.Reasons, fmt.Sprintf(format, args...))
	}
}

func (p *pass) set(name string, v float64) {
	p.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// setCounted records a value that rests on n samples but is not a median.
func (p *pass) setCounted(name string, v float64, n int) {
	p.Metrics[name] = metric{Value: v, Unit: unitOf(name), N: n}
}

func (p *pass) setSummary(name string, s summary, scale float64) {
	p.Metrics[name] = metric{Value: s.Median * scale, Unit: unitOf(name), Q1: s.Q1 * scale, Q3: s.Q3 * scale, N: s.N}
}

// minTimedReps is the fewest timed reps per schedule a node run reports
// medians over, however short -seconds is.
const minTimedReps = 3

// nodeEndToEnd runs a node workload from outside: per schedule one
// checked rep (-verify=true), then timed reps (-verify=false) alternating
// blocking and overlapped until the measuring time is used, with the
// calibration spin between reps.
func (e *env) nodeEndToEnd(g nodeGeom, seconds float64) *pass {
	p := newPass()
	modes := []string{"blocking", "overlapped"}
	// elapsed is barrier-to-barrier inside runner.Run, before the gather
	// and the verification, so a checked rep's completion time counts like
	// any other; its wall time does not (it includes the sequential run).
	elapsed := map[string][]float64{}
	for _, mode := range modes {
		p.Attempted++
		rep := e.runNodeRep(g, mode, true)
		if rep.err != nil {
			p.failf("checked %s rep: %v", mode, rep.err)
			continue
		}
		elapsed[mode] = append(elapsed[mode], rep.elapsed)
	}

	var walls, setups []float64
	var wallSum, rss float64
	spins := []float64{spin().Seconds()}
	start := time.Now()
	for n := 0; n < 2*minTimedReps || time.Since(start).Seconds() < seconds; n++ {
		rep := e.runNodeRep(g, modes[n%2], false)
		spins = append(spins, spin().Seconds())
		p.Attempted++
		if rep.err != nil {
			p.failf("timed %s rep: %v", rep.mode, rep.err)
			if p.Failed > 4 {
				break // the program is broken; do not burn the time cap
			}
			continue
		}
		elapsed[rep.mode] = append(elapsed[rep.mode], rep.elapsed)
		walls = append(walls, rep.wall)
		setups = append(setups, rep.wall-rep.elapsed)
		wallSum += rep.wall
		rss = max(rss, rep.rssMB)
	}
	if len(walls) == 0 {
		return p
	}
	p.setSummary("completion_s_overlapped", summarize(elapsed["overlapped"]), 1)
	p.setSummary("completion_s_blocking", summarize(elapsed["blocking"]), 1)
	p.set("req_per_s", float64(len(walls))/wallSum)
	ws := summarize(walls)
	p.setSummary("latency_p50_ms", ws, 1e3)
	p.setCounted("latency_p95_ms", ws.Q3*1e3, ws.N)
	p.setSummary("setup_s", summarize(setups), 1)
	p.Correct = p.Failed == 0

	p.layer["tilenode.job_wall_s"] = ws.Median
	p.layer["tilenode.peak_rss_mb"] = rss
	p.layer["host.spin_ms"] = median(spins) * 1e3
	p.layer["runner.overlap_gain_pct"] = 100 * (1 - median(elapsed["overlapped"])/median(elapsed["blocking"]))
	return p
}

// Request counts per second of -seconds. Serve runs are count-based so
// that two commits answer the identical list; the counts are sized so the
// list takes about -seconds at the commit that defined the benchmark.
const (
	coldPerSecond = 25
	hotPerSecond  = 10000
	hotPool       = 64
	// hotSegment is how many consecutive requests of the hot workload make
	// one segment; see serveNumbers.
	hotSegment = 1000
	// sampleStride: on a seed without committed golden answers, every
	// sampleStride-th cold request is re-derived in-process after the
	// timed run; the rest are checked structurally. Re-deriving all of
	// them would cost as much as the workload itself on every run.
	sampleStride = 8
	// A serve run sets the server up several times and reports the median
	// as setup_s: often where set-up is only the process start, less often
	// where each set-up also answers the whole pool once.
	coldSetups = 9
	hotSetups  = 3
)

// planReference returns the reference answers for the given requests: the
// golden file where it covers them, in-process evaluation for the rest
// (only every stride-th of those).
func planReference(ctx context.Context, seed int64, reqs []planapi.PlanRequest, stride int) (map[string]planAnswer, error) {
	want := make(map[string]planAnswer, len(reqs))
	if seed == goldenSeed {
		golden, err := loadGolden(goldenFile)
		if err != nil {
			return nil, err
		}
		for _, q := range reqs {
			if a, ok := golden[q.Key()]; ok {
				want[q.Key()] = a
			}
		}
	}
	var missing []int
	for i, q := range reqs {
		if _, ok := want[q.Key()]; !ok {
			missing = append(missing, i)
		}
	}
	var sampled []int
	for n := 0; n < len(missing); n += stride {
		sampled = append(sampled, missing[n])
	}
	extra, err := referencePlans(ctx, reqs, sampled)
	for k, a := range extra {
		want[k] = a
	}
	return want, err
}

// serveEndToEnd runs a serve workload from outside. hot=false plays the
// seed's list of distinct requests once; hot=true warms the first hotPool
// of them in set-up and then draws from that pool, with harness and server
// confined to one CPU.
func (e *env) serveEndToEnd(ctx context.Context, hot bool, seed int64, seconds float64) *pass {
	p := newPass()
	n := int(coldPerSecond * seconds)
	if hot {
		n = hotPool
	}
	reqs := genPlanRequests(seed, n)
	bodies, err := encodeRequests(reqs)
	if err != nil {
		p.failf("%v", err)
		return p
	}
	pool := make([]int, len(reqs))
	for i := range pool {
		pool[i] = i
	}
	timed := pool
	if hot {
		timed = hotDraws(seed, int(hotPerSecond*seconds))
	}

	// The hot workload runs on one CPU: harness, server and all. See
	// pinToOneCPU and README.md.
	unpin := func() {}
	if hot {
		if _, undo, err := pinToOneCPU(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: serve-hot is not confined to one CPU: %v\n", err)
		} else {
			unpin = undo
			defer unpin()
		}
	}

	// Set-up, several times over: start → first /healthz 200, plus the pool
	// warm-up on the hot workload. All but the last server are stopped
	// again at once; the last one takes the timed load.
	nSetups := coldSetups
	if hot {
		nSetups = hotSetups
	}
	var setups []float64
	var srv *server
	var warm loadResult
	for i := 0; i < nSetups; i++ {
		if srv != nil {
			if _, err := e.stopServer(srv); err != nil {
				p.failf("%v", err)
			}
		}
		if srv, err = e.startServer(); err != nil {
			p.Attempted++
			p.failf("%v", err)
			return p
		}
		setup := srv.startS
		if hot {
			warm = runLoad(dialPlan(srv.addr), bodies, pool)
			setup += warm.wall.Seconds()
		}
		setups = append(setups, setup)
	}

	load := runLoad(dialPlan(srv.addr), bodies, timed)
	counters, cerr := srv.counters()
	rss, stopErr := e.stopServer(srv)
	unpin()
	stride := sampleStride
	if hot {
		stride = 1
	}
	want, err := planReference(ctx, seed, reqs, stride)
	if err != nil {
		p.failf("%v", err)
	}
	loadFailed, reasons := judge(reqs, load.samples, want)
	warmFailed, warmReasons := judge(reqs, warm.samples, want)
	p.Attempted = len(load.samples) + len(warm.samples)
	p.Failed += loadFailed + warmFailed
	p.Reasons = append(append(p.Reasons, reasons...), warmReasons...)
	if cerr != nil {
		p.failf("%v", cerr)
	}
	t := counters.Service.Totals
	if cerr == nil && (t.Shed != 0 || t.Cancelled != 0 || int(t.Admitted) != p.Attempted) {
		p.failf("server counted admitted=%d shed=%d cancelled=%d for %d requests",
			t.Admitted, t.Shed, t.Cancelled, p.Attempted)
	}
	if stopErr != nil {
		// A server that does not drain cleanly fails the whole workload.
		p.Failed = p.Attempted
		p.Reasons = append(p.Reasons, stopErr.Error())
	}
	if len(load.samples) == 0 {
		return p
	}

	seg := len(load.samples)
	if hot {
		seg = hotSegment
	}
	p.setServeNumbers(reqs, load.samples, seg, len(load.samples)-loadFailed)
	p.setSummary("setup_s", summarize(setups), 1)
	p.Correct = p.Failed == 0

	p.layer["tileserve.peak_rss_mb"] = rss
	p.layer["tileserve.admitted"] = float64(t.Admitted)
	p.layer["tileserve.shed"] = float64(t.Shed)
	p.layer["tileserve.coalesced"] = float64(t.Coalesced)
	p.layer["tileserve.cancelled"] = float64(t.Cancelled)
	for _, k := range []string{"hits", "misses", "evals", "evictions", "coalesced"} {
		p.layer["sim.cache."+k] = float64(counters.Service.Cache[k])
	}
	return p
}

// quietLevel is the order statistic over the hot workload's segments that
// is reported: the lowest decile. What disturbs a segment on a shared host
// — another tenant on the core's other hardware thread, a preempted vCPU —
// only ever adds time, so the distribution over segments is a floor with a
// tail, and the floor is what repeats from run to run: over ten runs the
// lowest decile moved 3–7 % where the median over segments moved 4–17 %
// (README.md, host-noise finding). The price is a blind spot: a change that
// slows fewer than nine segments in ten does not show here; it shows in
// tileserve.latency_p99_ms and latency_max_ms, which are over all requests.
const quietLevel = 0.10

// setServeNumbers turns a finished load into the end-to-end numbers. The
// samples are cut into segments of seg consecutive requests, every number
// is worked out per segment, and what is reported is the quietLevel
// quantile over the segments, scaled back to the whole load where the
// number is a total. On the hot workload a segment is a fresh uniform
// sample of the pool, so the segments measure the same thing a couple of
// hundred times. The cold list's requests differ a hundredfold in cost, so
// it is one segment and its numbers are the plain ones over the whole list.
//
//   - completion_s_<mode>: time spent answering the <mode>-schedule
//     questions: their mean latency times their number (with one
//     closed-loop client, the sum of their latencies)
//   - req_per_s: correct replies ÷ wall time, first send → last reply
//   - latency_p50_ms, latency_p95_ms: send → body fully read
func (p *pass) setServeNumbers(reqs []planapi.PlanRequest, samples []sample, seg, correct int) {
	modes := []string{"overlapped", "blocking"}
	asked := map[string]float64{} // requests per mode in the whole load
	for _, x := range samples {
		asked[reqs[x.req].Mode]++
	}
	var wall, p50, p95 []float64
	meanLat := map[string][]float64{} // per mode, per segment, in s
	for lo := 0; lo+seg <= len(samples); lo += seg {
		s := samples[lo : lo+seg]
		lat := make([]float64, seg)
		sum, count := map[string]float64{}, map[string]float64{}
		for i, x := range s {
			lat[i] = x.latency.Seconds() * 1e3
			sum[reqs[x.req].Mode] += x.latency.Seconds()
			count[reqs[x.req].Mode]++
		}
		sort.Float64s(lat)
		last := s[seg-1]
		wall = append(wall, (last.at + last.latency - s[0].at).Seconds())
		p50 = append(p50, quantileSorted(lat, 0.5))
		p95 = append(p95, quantileSorted(lat, 0.95))
		for _, m := range modes {
			if count[m] > 0 {
				meanLat[m] = append(meanLat[m], sum[m]/count[m])
			}
		}
	}
	segments := len(wall)
	for _, m := range modes {
		p.setCounted("completion_s_"+m, quantile(meanLat[m], quietLevel)*asked[m], segments)
	}
	share := float64(correct) / float64(len(samples))
	p.setCounted("req_per_s", float64(seg)/quantile(wall, quietLevel)*share, segments)

	all := make([]float64, len(samples))
	for i, x := range samples {
		all[i] = x.latency.Seconds() * 1e3
	}
	sort.Float64s(all)
	// The quartiles beside latency_p50_ms are those of all the latencies.
	p.Metrics["latency_p50_ms"] = metric{Value: quantile(p50, quietLevel), Unit: unitOf("latency_p50_ms"),
		Q1: quantileSorted(all, 0.25), Q3: quantileSorted(all, 0.75), N: len(all)}
	p.setCounted("latency_p95_ms", quantile(p95, quietLevel), len(all))
	p.layer["tileserve.latency_p99_ms"] = quantileSorted(all, 0.99)
	p.layer["tileserve.latency_max_ms"] = all[len(all)-1]
}

// hotDraws is the hot workload's request sequence: n uniform draws from
// the pool.
func hotDraws(seed int64, n int) []int {
	rng := splitmix(uint64(seed) ^ 0x5bd1e995)
	draws := make([]int, n)
	for i := range draws {
		draws[i] = int(rng.intn(hotPool))
	}
	return draws
}
