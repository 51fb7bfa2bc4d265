package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/planapi"
	"repro/internal/sim"
)

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4}, {0.95, 4.8},
	} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its argument in place")
	}
	s := summarize([]float64{10, 20, 30, 40})
	if s.Median != 25 || s.Q1 != 17.5 || s.Q3 != 32.5 || s.N != 4 {
		t.Errorf("summarize = %+v", s)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample should give NaN")
	}
	if got := quantile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: %v", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{16, 0, false},    // a node run's reps: not even the median has ten beyond
		{20, 0.50, true},  // exactly ten beyond the median
		{110, 0.90, true}, // 11 beyond p90, 5.5 beyond p95
		{500, 0.95, true}, // serve-cold: 25 beyond p95, 5 beyond p99
		{800, 0.95, true}, // the 800-request list: 40 beyond p95, 8 beyond p99
		{1000, 0.99, true},
		{100000, 0.999, true},
	} {
		got, ok := highestSupportedPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d: got %v,%v want %v,%v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Layer: "runner", Start: 0, End: 100, Parent: -1},  // 0: root
		{Layer: "mp", Start: 10, End: 30, Parent: 0},       // 1: child
		{Layer: "mp", Start: 20, End: 50, Parent: 0},       // 2: overlaps 1 → union [10,50)
		{Layer: "estimate", Start: 60, End: 90, Parent: 0}, // 3: child with its own child
		{Layer: "sim", Start: 65, End: 85, Parent: 3},      // 4: nested
		{Layer: "mp", Start: 95, End: 120, Parent: 0},      // 5: runs past its parent: clipped to [95,100)
		{Layer: "mp", Start: 200, End: -1, Parent: 0},      // 6: never closed
		{Layer: "runner", Start: 0, End: 40, Parent: -1},   // 7: second root, no children
	}
	self, root := selfTimes(spans)
	if root != 140 {
		t.Errorf("root = %d, want 140", root)
	}
	want := map[string]int64{
		"runner":   100 - (40 + 30 + 5) + 40, // root 0 minus the union of its direct children, plus root 7
		"mp":       20 + 30 + 25,             // each span's own duration; overlap is the parent's business
		"estimate": 30 - 20,
		"sim":      20,
	}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self[%s] = %d, want %d", layer, self[layer], w)
		}
	}
}

func TestMergeSpansRebasesParents(t *testing.T) {
	epoch := time.Now()
	a, b := newRecorder(epoch), newRecorder(epoch)
	ra := a.begin("runner", "Run", -1, 0)
	a.end(a.begin("mp", "Send", ra, 0))
	a.end(ra)
	rb := b.begin("runner", "Run", -1, 1)
	b.end(b.begin("mp", "Recv", rb, 1))
	b.end(rb)
	all := mergeSpans(a, b)
	if len(all) != 4 || all[1].Parent != 0 || all[2].Parent != -1 || all[3].Parent != 2 {
		t.Errorf("merged parents: %+v", all)
	}
}

func TestPlanRequestGenerator(t *testing.T) {
	a, b := genPlanRequests(1, goldenCount), genPlanRequests(1, goldenCount)
	other := genPlanRequests(2, goldenCount)
	keys := make(map[string]bool)
	differs := false
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("request %d differs between two generations of seed 1", i)
		}
		if a[i].Key() != other[i].Key() {
			differs = true
		}
		if err := a[i].Validate(); err != nil {
			t.Fatalf("request %d (%s): %v", i, a[i].Key(), err)
		}
		if a[i].Exact {
			t.Fatalf("request %d sets exact", i)
		}
		if keys[a[i].Key()] {
			t.Fatalf("duplicate key %s", a[i].Key())
		}
		keys[a[i].Key()] = true
		// The cost mix is the same for every seed: only K moves, a little.
		if a[i].Mode != other[i].Mode || a[i].Procs[0] != other[i].Procs[0] || a[i].Space[0] != other[i].Space[0] ||
			abs64(a[i].Space[2]-other[i].Space[2]) >= planKJitter {
			t.Fatalf("request %d: seeds 1 and 2 differ in more than the K jitter: %s vs %s", i, a[i].Key(), other[i].Key())
		}
	}
	if !differs {
		t.Error("seeds 1 and 2 gave the same list")
	}
	short := genPlanRequests(1, 10)
	for i := range short {
		if short[i].Key() != a[i].Key() {
			t.Errorf("the list is not prefix-stable at %d", i)
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestGoldenCoversDefaultSeed(t *testing.T) {
	golden, err := loadGolden("testdata/plan_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	reqs := genPlanRequests(goldenSeed, goldenCount)
	if len(golden) != len(reqs) {
		t.Errorf("golden holds %d answers, the list has %d", len(golden), len(reqs))
	}
	for _, q := range reqs {
		a, ok := golden[q.Key()]
		if !ok {
			t.Fatalf("no golden answer for %s (regenerate with -write-golden)", q.Key())
		}
		res := planapi.PlanResult{Version: planapi.Version, Mode: q.Mode, V: a.V, G: a.G, TSeconds: a.T, Tier: a.Tier}
		if err := structurallyValid(q, res); err != nil {
			t.Fatalf("golden answer for %s: %v", q.Key(), err)
		}
	}
	// One answer re-derived, so that a stale file fails here and not only
	// in a full benchmark run.
	q := reqs[0]
	got, _, err := referencePlan(context.Background(), q, sim.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	if !got.equal(golden[q.Key()]) {
		t.Errorf("golden answer for %s is %+v, computed %+v", q.Key(), golden[q.Key()], got)
	}
}

func TestParseNodeOutput(t *testing.T) {
	out := []byte("mode=overlapped space=64x64x2048 procs=2x1 V=128 elapsed=1.043168s tiles=16 sent=16 msgs (1048576 bytes)\n" +
		"verification: max |parallel - sequential| = 0\n")
	o, err := parseNodeOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	want := nodeOutput{mode: "overlapped", elapsed: 1043168 * time.Microsecond, tiles: 16, msgs: 16, bytes: 1 << 20, verified: true}
	if o != want {
		t.Errorf("parsed %+v, want %+v", o, want)
	}
	if err := o.check(coarseGeom, "overlapped", true); err != nil {
		t.Errorf("check: %v", err)
	}

	ms, err := parseNodeOutput([]byte("mode=blocking space=8x2x16384 procs=1x2 V=1 elapsed=843.21ms tiles=16384 sent=16384 msgs (1048576 bytes)\n"))
	if err != nil || ms.elapsed != 843210*time.Microsecond || ms.verified {
		t.Errorf("ms form: %+v, %v", ms, err)
	}
	if err := ms.check(fineGeom, "blocking", false); err != nil {
		t.Errorf("check: %v", err)
	}

	for name, c := range map[string]struct {
		o      nodeOutput
		verify bool
	}{
		"wrong mode":          {nodeOutput{mode: "blocking", elapsed: 1, tiles: 16, msgs: 16, bytes: 1 << 20}, false},
		"wrong tile count":    {nodeOutput{mode: "overlapped", elapsed: 1, tiles: 15, msgs: 16, bytes: 1 << 20}, false},
		"wrong byte count":    {nodeOutput{mode: "overlapped", elapsed: 1, tiles: 16, msgs: 16, bytes: 1}, false},
		"missing verify line": {nodeOutput{mode: "overlapped", elapsed: 1, tiles: 16, msgs: 16, bytes: 1 << 20}, true},
		"nonzero difference":  {nodeOutput{mode: "overlapped", elapsed: 1, tiles: 16, msgs: 16, bytes: 1 << 20, verified: true, maxDiff: 1e-9}, true},
		"zero elapsed":        {nodeOutput{mode: "overlapped", tiles: 16, msgs: 16, bytes: 1 << 20}, false},
	} {
		if err := c.o.check(coarseGeom, "overlapped", c.verify); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := parseNodeOutput([]byte("tilenode: rank 1 failed\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestGeometryCounts(t *testing.T) {
	for _, c := range []struct {
		g                  nodeGeom
		tiles, msgs, bytes int64
	}{
		{coarseGeom, 16, 16, 16 * 64 << 10},  // east faces: 64×128 values of 8 B
		{fineGeom, 16384, 16384, 16384 * 64}, // south faces: 8×1 values of 8 B
		{nodeGeom{I: 8, J: 8, K: 100, PI: 2, PJ: 2, V: 30}, 4, 8, 2 * 8 * 4 * 100},
		{nodeGeom{I: 8, J: 8, K: 64, PI: 1, PJ: 1, V: 64}, 1, 0, 0},
	} {
		tiles, msgs, bytes := c.g.rank0Counts()
		if tiles != c.tiles || msgs != c.msgs || bytes != c.bytes {
			t.Errorf("%+v: got %d/%d/%d, want %d/%d/%d", c.g, tiles, msgs, bytes, c.tiles, c.msgs, c.bytes)
		}
	}
}

// fakeServer is a poster that answers plan requests from a table,
// corrupting or refusing the ones it is told to.
type fakeServer struct {
	answers map[string]planapi.PlanResult // by request body
	wrong   string                        // body to answer with a wrong but self-consistent optimum
	garbled string                        // body to answer with a tile volume that does not match v
	refuse  string                        // body to answer 503
}

func (f *fakeServer) close() {}

func (f *fakeServer) post(body []byte) (int, []byte, error) {
	if string(body) == f.refuse {
		return http.StatusServiceUnavailable, []byte("server at capacity\n"), nil
	}
	res := f.answers[string(body)]
	if string(body) == f.wrong {
		res.V *= 2
		res.G *= 2
	}
	if string(body) == f.garbled {
		res.G++
	}
	var buf bytes.Buffer
	if err := planapi.EncodeResult(&buf, res); err != nil {
		return 0, nil, err
	}
	return http.StatusOK, buf.Bytes(), nil
}

func TestJudgeCountsWrongAnswersAndRefusals(t *testing.T) {
	ctx := context.Background()
	var reqs []planapi.PlanRequest
	for k := int64(256); k < 256+6; k++ { // small grids: a reference costs milliseconds
		reqs = append(reqs, planapi.PlanRequest{Version: planapi.Version, Space: []int64{8, 8, k}, Procs: []int64{4, 4}, Mode: "blocking"})
	}
	bodies, err := encodeRequests(reqs)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 1, 2, 3, 4, 5}
	want, err := referencePlans(ctx, reqs, idx)
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeServer{answers: make(map[string]planapi.PlanResult)}
	for i, q := range reqs {
		a := want[q.Key()]
		fake.answers[string(bodies[i])] = planapi.PlanResult{Version: planapi.Version, Mode: q.Mode, V: a.V, G: a.G, TSeconds: a.T, Tier: a.Tier, Probes: 3}
	}
	order := append(append([]int(nil), idx...), idx...) // every request twice
	run := func() (int, []string) {
		load := runLoad(func() (poster, error) { return fake, nil }, bodies, order)
		if len(load.samples) != len(order) || load.wall <= 0 {
			t.Fatalf("load: %d samples, wall %v", len(load.samples), load.wall)
		}
		return judge(reqs, load.samples, want)
	}
	if failed, reasons := run(); failed != 0 {
		t.Fatalf("clean run: %d failed: %v", failed, reasons)
	}
	fake.wrong = string(bodies[2])
	if failed, reasons := run(); failed != 2 || !strings.Contains(reasons[0], "differs from the reference") {
		t.Errorf("wrong answer: failed=%d reasons=%v", failed, reasons)
	}
	fake.refuse = string(bodies[4])
	if failed, reasons := run(); failed != 4 {
		t.Errorf("wrong answer + 503: failed=%d reasons=%v", failed, reasons)
	}
	// An answer with no reference is still held to the request it answers.
	fake.refuse, fake.wrong, fake.garbled = "", "", string(bodies[2])
	delete(want, reqs[2].Key())
	if failed, reasons := run(); failed != 2 || !strings.Contains(reasons[0], "g=") {
		t.Errorf("structural check: failed=%d reasons=%v", failed, reasons)
	}
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestCatalogueMatchesBenchmarkJSON holds the harness's metric catalogue
// and the contract file together, and the contract file to its limits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	spec, err := readBenchmarkSpec("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, specs []metricSpec, bounded bool) {
		if len(defs) != len(specs) {
			t.Errorf("%s: the harness emits %d metrics, %s lists %d", kind, len(defs), benchmarkFile, len(specs))
		}
		byName := make(map[string]metricSpec)
		for _, s := range specs {
			if _, dup := byName[s.Name]; dup {
				t.Errorf("%s: %s listed twice", kind, s.Name)
			}
			byName[s.Name] = s
			if s.Better != "higher" && s.Better != "lower" {
				t.Errorf("%s: %s has better=%q", kind, s.Name, s.Better)
			}
			if bounded != (s.Bound != nil) {
				t.Errorf("%s: %s: bound present = %v", kind, s.Name, s.Bound != nil)
			}
			if s.Bound != nil && (*s.Bound <= 0 || *s.Bound > 0.25) {
				t.Errorf("%s: %s: bound %v outside (0, 0.25]", kind, s.Name, *s.Bound)
			}
		}
		for _, d := range defs {
			if !metricNameRE.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("%s: %s has bad unit %q", kind, d.name, d.unit)
			}
			s, ok := byName[d.name]
			if !ok {
				t.Errorf("%s: %s is emitted but not in %s", kind, d.name, benchmarkFile)
			} else if s.Unit != d.unit {
				t.Errorf("%s: %s has unit %q here, %q in %s", kind, d.name, d.unit, s.Unit, benchmarkFile)
			}
		}
	}
	check("end_to_end", endToEndDefs, spec.EndToEnd, true)
	check("per_layer", perLayerDefs, spec.PerLayer, false)
	if len(allMetricNames()) != len(metricUnits) {
		t.Error("a metric name is used in both lists")
	}
	if unitOf("setup_s") != "s" {
		t.Error("setup_s must be in seconds")
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%s lists %d workloads, the harness has %d", benchmarkFile, len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q in %s, %q in the harness", i, w.Name, benchmarkFile, workloads[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v", spec.Paths)
	}
	if fi, err := os.Stat("../" + benchmarkFile); err != nil || fi.Size() > 64<<10 {
		t.Errorf("%s: %v, size limit 64 KiB", benchmarkFile, err)
	}
}

// TestTracedPassEmitsWholeCatalogue: the traced pass starts from a zero
// for every per-layer name, so whatever a workload does not touch is still
// reported, and refuses names outside the catalogue.
func TestPassSetUsesCatalogueUnits(t *testing.T) {
	p := newPass()
	for _, name := range allMetricNames() {
		p.set(name, 1)
		if p.Metrics[name].Unit == "" {
			t.Errorf("%s has no unit", name)
		}
	}
}

func TestCompare(t *testing.T) {
	bound := 0.10
	var spec benchmarkSpec
	for _, d := range endToEndDefs {
		better := "lower"
		if d.name == "req_per_s" {
			better = "higher"
		}
		spec.EndToEnd = append(spec.EndToEnd, metricSpec{Name: d.name, Unit: d.unit, Better: better, Bound: &bound})
	}
	mk := func(completion, rps float64, failed int) result {
		p := newPass()
		p.Attempted, p.Failed, p.Correct = 100, failed, failed == 0
		for _, name := range endToEndNames {
			p.set(name, 1)
		}
		p.set("completion_s_blocking", completion)
		p.set("req_per_s", rps)
		return result{Schema: 1, Args: runArgs{Seed: 1, Seconds: 20},
			Workloads: []workloadResult{{Name: "node3d-coarse", EndToEnd: p}}}
	}
	var out bytes.Buffer
	if code := compareResults(&out, spec, mk(1.00, 100, 0), mk(1.04, 97, 0)); code != 0 {
		t.Errorf("within bounds, exit %d:\n%s", code, out.String())
	}
	if code := compareResults(&out, spec, mk(1.00, 100, 0), mk(0.5, 200, 0)); code != 0 {
		t.Errorf("improvement, exit %d", code)
	}
	out.Reset()
	if code := compareResults(&out, spec, mk(1.00, 100, 0), mk(1.11, 100, 0)); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("slower completion, exit %d:\n%s", code, out.String())
	}
	if code := compareResults(&out, spec, mk(1.00, 100, 0), mk(1.00, 89, 0)); code != 1 {
		t.Errorf("lower throughput, exit %d", code)
	}
	if code := compareResults(&out, spec, mk(1.00, 100, 0), mk(1.00, 100, 1)); code != 1 {
		t.Errorf("failures rose, exit %d", code)
	}
	other := mk(1.00, 100, 0)
	other.Args.Seconds = 10
	if code := compareResults(&out, spec, mk(1.00, 100, 0), other); code != 2 {
		t.Errorf("different -seconds, exit %d", code)
	}
}

// TestPlanConn drives the hand-written client against a real net/http
// server: replies arrive whole, the connection is reused, and a reply that
// closes the connection is followed by a fresh dial.
func TestPlanConn(t *testing.T) {
	conns := 0
	var mu sync.Mutex
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.Method != http.MethodPost || r.URL.Path != "/v1/plan" || r.Header.Get("Content-Type") != "application/json" {
			http.Error(w, "bad request line or headers", http.StatusBadRequest)
			return
		}
		switch string(body) {
		case "close":
			w.Header().Set("Connection", "close")
		case "big": // past net/http's buffer, so the reply is chunked
			w.Write(bytes.Repeat([]byte("x"), 1<<16))
			return
		case "busy":
			http.Error(w, "server at capacity", http.StatusServiceUnavailable)
			return
		}
		w.Write(append([]byte("echo:"), body...))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			mu.Lock()
			conns++
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()

	c, err := dialPlan(srv.Listener.Addr().String())()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	for _, step := range []struct {
		body      string
		status    int
		reply     string
		wantConns int
	}{
		{"a", 200, "echo:a", 1},
		{"b", 200, "echo:b", 1},
		{"busy", 503, "server at capacity\n", 1},
		{"big", 200, strings.Repeat("x", 1<<16), 1},
		{"close", 200, "echo:close", 1},
		{"c", 200, "echo:c", 2},
	} {
		status, reply, err := c.post([]byte(step.body))
		if err != nil || status != step.status || string(reply) != step.reply {
			t.Fatalf("post(%q) = %d, %d bytes, %v", step.body, status, len(reply), err)
		}
		mu.Lock()
		got := conns
		mu.Unlock()
		if got != step.wantConns {
			t.Errorf("after post(%q): %d connections, want %d", step.body, got, step.wantConns)
		}
	}
}

// TestServeNumbers checks the segment arithmetic: totals are scaled back
// to the whole load, and a disturbed segment in ten leaves every number
// where the undisturbed ones put it.
func TestServeNumbers(t *testing.T) {
	reqs := []planapi.PlanRequest{{Mode: "overlapped"}, {Mode: "blocking"}}
	const seg, segments = 10, 20
	build := func(slow map[int]bool) []sample {
		var out []sample
		var at time.Duration
		for n := 0; n < seg*segments; n++ {
			// Three overlapped questions of 1 ms to every blocking one of 3 ms.
			s := sample{req: 0, at: at, latency: time.Millisecond}
			if n%4 == 3 {
				s.req, s.latency = 1, 3*time.Millisecond
			}
			if slow[n/seg] {
				s.latency *= 5
			}
			at += s.latency
			out = append(out, s)
		}
		return out
	}
	for name, samples := range map[string][]sample{
		"quiet":     build(nil),
		"disturbed": build(map[int]bool{3: true, 11: true}),
	} {
		p := newPass()
		p.setServeNumbers(reqs, samples, seg, len(samples))
		for metric, want := range map[string]float64{
			"completion_s_overlapped": 150 * 0.001,
			"completion_s_blocking":   50 * 0.003,
			"latency_p50_ms":          1,
			"latency_p95_ms":          3,
		} {
			if got := p.Metrics[metric].Value; math.Abs(got-want) > 1e-9 {
				t.Errorf("%s: %s = %v, want %v", name, metric, got, want)
			}
		}
		// A segment holds 7–8 short and 2–3 long questions: 13–17 ms.
		if got := p.Metrics["req_per_s"].Value; got < 10/0.017-1e-6 || got > 10/0.013+1e-6 {
			t.Errorf("%s: req_per_s = %v", name, got)
		}
	}

	// One segment (the cold list): the plain numbers over the whole load,
	// and failed requests lower the throughput.
	samples := build(nil)
	p := newPass()
	p.setServeNumbers(reqs, samples, len(samples), len(samples)/2)
	if got, want := p.Metrics["req_per_s"].Value, 100/0.3; math.Abs(got-want) > 1e-6 {
		t.Errorf("one segment: req_per_s = %v, want %v", got, want)
	}
	if got := p.Metrics["completion_s_blocking"].Value; math.Abs(got-0.15) > 1e-9 {
		t.Errorf("one segment: completion_s_blocking = %v", got)
	}
}
