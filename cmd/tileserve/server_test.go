package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/planapi"
	"repro/internal/sim"
)

// testServer starts an in-process server on a loopback port and tears it
// down with the test.
func testServer(t *testing.T, cfg config) *server {
	t.Helper()
	s := newServer(cfg)
	if err := s.start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.shutdown(ctx)
	})
	return s
}

func postPlan(t *testing.T, addr, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("http://%s/v1/plan", addr), "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, b.String()
}

// tryPostPlan is postPlan for goroutines other than the test's own: a
// transport error comes back as status 0 with the error as the body.
func tryPostPlan(addr, body string) (int, string) {
	resp, err := http.Post(fmt.Sprintf("http://%s/v1/plan", addr), "application/json",
		strings.NewReader(body))
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	return resp.StatusCode, b.String()
}

func reqJSON(k int64, tenant string) string {
	return fmt.Sprintf(`{"version":1,"space":[8,8,%d],"procs":[4,4],"tenant":%q}`, k, tenant)
}

// offlineAnswer computes the reference answer the way `tileplan -optimum`
// does — fresh cache, same sweep construction.
func offlineAnswer(t *testing.T, body string, mode sim.Mode) (int64, float64) {
	t.Helper()
	q, err := planapi.DecodeRequest(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := q.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	sw.Cache = sim.NewCache()
	out, err := sw.OptimumDetailCtx(context.Background(), mode)
	if err != nil {
		t.Fatal(err)
	}
	return out.V, out.T
}

// TestServedAnswerMatchesOffline: an admitted request's answer is
// bit-identical to the offline CLI construction, both modes.
func TestServedAnswerMatchesOffline(t *testing.T) {
	cfg := defaultConfig()
	cfg.rate = 0 // unlimited
	s := testServer(t, cfg)
	for _, mode := range []string{"overlapped", "blocking"} {
		body := fmt.Sprintf(`{"version":1,"space":[8,8,512],"procs":[4,4],"mode":%q}`, mode)
		resp, out := postPlan(t, s.addr, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", mode, resp.StatusCode, out)
		}
		res, err := planapi.DecodeResult(strings.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		simMode := sim.Overlapped
		if mode == "blocking" {
			simMode = sim.Blocking
		}
		wantV, wantT := offlineAnswer(t, body, simMode)
		if res.V != wantV || res.TSeconds != wantT {
			t.Errorf("%s: served V=%d t=%g, offline V=%d t=%g", mode, res.V, res.TSeconds, wantV, wantT)
		}
		if res.Mode != mode || res.Version != planapi.Version || res.Tier == "" {
			t.Errorf("%s: result metadata %+v", mode, res)
		}
	}
}

// TestRejectsMalformed: the strict decode boundary answers 400 before any
// admission or simulator state is touched, and non-POSTs get 405.
func TestRejectsMalformed(t *testing.T) {
	s := testServer(t, defaultConfig())
	for name, body := range map[string]string{
		"truncated":   `{"version":1,"space":[8,8`,
		"unknown":     `{"version":1,"space":[8,8,64],"procs":[4,4],"nope":1}`,
		"bad version": `{"version":9,"space":[8,8,64],"procs":[4,4]}`,
		"work bound":  `{"version":1,"space":[4096,4096,1048576],"procs":[16,16]}`,
	} {
		resp, out := postPlan(t, s.addr, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, strings.TrimSpace(out))
		}
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/plan", s.addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", resp.StatusCode)
	}
	if st := s.cache.Stats(); st.Evals != 0 {
		t.Errorf("malformed requests ran %d DES evaluations", st.Evals)
	}
}

// TestRateLimitSheds: with a frozen clock and burst 2, the third request
// is shed with 429, a Retry-After header, and a Shed counter — never an
// evaluation.
func TestRateLimitSheds(t *testing.T) {
	cfg := defaultConfig()
	cfg.rate, cfg.burst = 1, 2
	frozen := time.Now()
	cfg.now = func() time.Time { return frozen }
	s := testServer(t, cfg)

	for i := 0; i < 2; i++ {
		resp, out := postPlan(t, s.addr, reqJSON(64, "team-a"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, out)
		}
	}
	resp, _ := postPlan(t, s.addr, reqJSON(64, "team-a"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive delay", ra)
	}
	snap := s.metrics.Snapshot()
	if snap.Totals.Shed != 1 || snap.Totals.Admitted != 2 {
		t.Errorf("counters %+v", snap.Totals)
	}
}

// TestQueueFullSheds: with one slot and no queue, a second concurrent
// request is shed with 503 while the first still holds the engine.
func TestQueueFullSheds(t *testing.T) {
	cfg := defaultConfig()
	cfg.rate = 0
	cfg.concurrency, cfg.queueDepth = 1, 0
	s := newServer(cfg)
	hold := make(chan struct{})
	var holdOnce sync.Once
	releaseHold := func() { holdOnce.Do(func() { close(hold) }) }
	entered := make(chan struct{}, 8)
	s.testHook = func(_ context.Context, q planapi.PlanRequest) {
		entered <- struct{}{}
		<-hold
	}
	if err := s.start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		releaseHold()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.shutdown(ctx)
	}()

	done := make(chan string, 1)
	go func() {
		resp, out := postPlan(t, s.addr, reqJSON(64, "slow"))
		done <- fmt.Sprintf("%d %s", resp.StatusCode, out)
	}()
	<-entered // first request owns the only slot and is inside its evaluation

	resp, _ := postPlan(t, s.addr, reqJSON(128, "fast"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	snap := s.metrics.Snapshot()
	if got := snap.Totals.Shed; got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}
	releaseHold()
	if first := <-done; !strings.HasPrefix(first, "200") {
		t.Errorf("first request: %s", first)
	}
}

// TestConcurrentIdenticalRequestsShareDES: sim.Cache is the one
// coalescing layer. N identical concurrent requests each run their own
// sweep, all N get the same bytes, and together they cost exactly the DES
// evaluations of one request served alone.
func TestConcurrentIdenticalRequestsShareDES(t *testing.T) {
	const n = 8
	cfg := defaultConfig()
	cfg.rate = 0
	cfg.concurrency = n

	alone := testServer(t, cfg)
	resp, want := postPlan(t, alone.addr, reqJSON(256, "t"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single request: status %d: %s", resp.StatusCode, want)
	}
	oneEvals := alone.cache.Stats().Evals

	s := testServer(t, cfg)
	var wg sync.WaitGroup
	bodies := make([]string, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = tryPostPlan(s.addr, reqJSON(256, "t"))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if bodies[i] != want {
			t.Errorf("request %d body differs:\n%s\n%s", i, bodies[i], want)
		}
	}
	if got := s.cache.Stats().Evals; oneEvals == 0 || got != oneEvals {
		t.Errorf("%d concurrent requests ran %d DES evaluations, one alone ran %d", n, got, oneEvals)
	}
	snap := s.metrics.Snapshot()
	if snap.Totals.Admitted != n || snap.Totals.Completed != n {
		t.Errorf("counters %+v", snap.Totals)
	}
}

// TestPanicIsolation: a poisoned request gets 500 and a Panics counter;
// the process keeps serving.
func TestPanicIsolation(t *testing.T) {
	cfg := defaultConfig()
	cfg.rate = 0
	s := newServer(cfg)
	s.testHook = func(_ context.Context, q planapi.PlanRequest) {
		if q.Tenant == "boom" {
			panic("injected failure")
		}
	}
	if err := s.start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.shutdown(ctx)
	}()

	resp, _ := postPlan(t, s.addr, reqJSON(64, "boom"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned request: status %d, want 500", resp.StatusCode)
	}
	resp, out := postPlan(t, s.addr, reqJSON(128, "ok"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic: status %d: %s", resp.StatusCode, out)
	}
	snap := s.metrics.Snapshot()
	if snap.Totals.Panics != 1 || snap.Totals.Completed != 1 {
		t.Errorf("counters %+v", snap.Totals)
	}
}

// TestAbandonedEvaluationCancelled: once the request's context dies (its
// client walked away) the sweep aborts with context.Canceled before the
// engine runs, instead of running to completion.
func TestAbandonedEvaluationCancelled(t *testing.T) {
	s := newServer(defaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.testHook = func(context.Context, planapi.PlanRequest) { cancel() }
	q, err := planapi.DecodeRequest(strings.NewReader(
		`{"version":1,"space":[8,8,16384],"procs":[4,4],"exact":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.evaluate(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("abandoned evaluation returned %v, want context.Canceled", err)
	}
	if st := s.cache.Stats(); st.Evals != 0 {
		t.Errorf("abandoned evaluation ran %d DES evaluations", st.Evals)
	}
}

// TestClientTimeoutCounted: a client that gives up mid-evaluation lands in
// the Cancelled counter, and the server keeps serving afterwards.
func TestClientTimeoutCounted(t *testing.T) {
	cfg := defaultConfig()
	cfg.rate = 0
	s := newServer(cfg)
	s.testHook = func(ctx context.Context, q planapi.PlanRequest) {
		if q.Tenant == "impatient" {
			<-ctx.Done() // stalls like a sweep, stops like one between evaluations
		}
	}
	if err := s.start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.shutdown(ctx)
	}()

	client := &http.Client{Timeout: 200 * time.Millisecond}
	_, err := client.Post(fmt.Sprintf("http://%s/v1/plan", s.addr), "application/json",
		strings.NewReader(reqJSON(64, "impatient")))
	if err == nil {
		t.Fatal("stalled request returned before its client timeout")
	}
	waitFor(t, "client disconnect counted as Cancelled", func() bool {
		return s.metrics.Tenant("impatient").Cancelled.Load() == 1
	})
	resp, out := postPlan(t, s.addr, reqJSON(128, "patient"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after disconnect: status %d: %s", resp.StatusCode, out)
	}
}

// TestSlotHeldUntilEvaluationStops: -concurrency is an honest bound. A
// client that disconnects mid-evaluation keeps its slot until its
// evaluation stops, so with one slot no two evaluations ever overlap.
func TestSlotHeldUntilEvaluationStops(t *testing.T) {
	cfg := defaultConfig()
	cfg.rate = 0
	cfg.concurrency = 1
	s := newServer(cfg)
	var active, peak atomic.Int32
	gone := make(chan struct{})
	s.testHook = func(ctx context.Context, q planapi.PlanRequest) {
		n := active.Add(1)
		defer active.Add(-1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		if q.Tenant != "gone" {
			return
		}
		<-ctx.Done()
		close(gone)
		// Stand in for a DES evaluation that runs to completion whatever
		// its client does: run until the next request is either queued
		// behind this one or evaluating beside it.
		deadline := time.Now().Add(10 * time.Second)
		for s.gate.queued.Load() == 0 && active.Load() < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	if err := s.start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.shutdown(ctx)
	}()

	client := &http.Client{Timeout: 50 * time.Millisecond}
	if _, err := client.Post(fmt.Sprintf("http://%s/v1/plan", s.addr), "application/json",
		strings.NewReader(reqJSON(64, "gone"))); err == nil {
		t.Fatal("stalled request returned before its client timeout")
	}
	select {
	case <-gone:
	case <-time.After(10 * time.Second):
		t.Fatal("server never saw the client disconnect")
	}
	resp, out := postPlan(t, s.addr, reqJSON(128, "next"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request: status %d: %s", resp.StatusCode, out)
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("%d evaluations ran at once under -concurrency 1", p)
	}
	tot := s.metrics.Snapshot().Totals
	if tot.Admitted != 2 || tot.Cancelled != 1 || tot.Completed != 1 {
		t.Errorf("counters %+v", tot)
	}
}

// TestQueuedGiveUpCountedShed: a request whose client gives up while it
// waits in the queue was never admitted, so it counts as Shed and the
// in-flight invariant admitted = completed + cancelled + panics holds.
func TestQueuedGiveUpCountedShed(t *testing.T) {
	cfg := defaultConfig()
	cfg.rate = 0
	cfg.concurrency = 1
	s := newServer(cfg)
	hold := make(chan struct{})
	var holdOnce sync.Once
	releaseHold := func() { holdOnce.Do(func() { close(hold) }) }
	entered := make(chan struct{}, 1)
	s.testHook = func(_ context.Context, q planapi.PlanRequest) {
		if q.Tenant == "holder" {
			entered <- struct{}{}
			<-hold
		}
	}
	if err := s.start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		releaseHold()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.shutdown(ctx)
	}()

	done := make(chan int, 1)
	go func() {
		code, _ := tryPostPlan(s.addr, reqJSON(64, "holder"))
		done <- code
	}()
	<-entered // the holder owns the only slot

	client := &http.Client{Timeout: 50 * time.Millisecond}
	if _, err := client.Post(fmt.Sprintf("http://%s/v1/plan", s.addr), "application/json",
		strings.NewReader(reqJSON(128, "queued"))); err == nil {
		t.Fatal("queued request returned before its client timeout")
	}
	waitFor(t, "queued give-up counted as Shed", func() bool {
		return s.metrics.Tenant("queued").Shed.Load() == 1
	})
	releaseHold()
	if code := <-done; code != http.StatusOK {
		t.Errorf("holder: status %d", code)
	}
	tot := s.metrics.Snapshot().Totals
	if tot.Admitted != tot.Completed+tot.Cancelled+tot.Panics || tot.Admitted != 1 || tot.Shed != 1 {
		t.Errorf("counters %+v break admitted = completed + cancelled + panics", tot)
	}
}

// TestDrainDeadlineCancelsEvaluation: an evaluation that outlives the
// drain deadline is cancelled through its request context (derived from
// the server's base context); shutdown reports the deadline promptly and
// the request lands in Cancelled.
func TestDrainDeadlineCancelsEvaluation(t *testing.T) {
	cfg := defaultConfig()
	cfg.rate = 0
	s := newServer(cfg)
	entered := make(chan struct{})
	s.testHook = func(ctx context.Context, q planapi.PlanRequest) {
		close(entered)
		<-ctx.Done()
	}
	if err := s.start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	replied := make(chan struct{})
	go func() {
		defer close(replied)
		tryPostPlan(s.addr, reqJSON(64, "straggler"))
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("shutdown returned %v, want the drain deadline", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("shutdown took %v past a 50ms drain deadline", d)
	}
	waitFor(t, "straggler counted as Cancelled", func() bool {
		return s.metrics.Snapshot().Totals.Cancelled == 1
	})
	<-replied
}

// waitFor polls cond for up to five seconds and fails the test if it never
// holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosDrill is the acceptance drill: repeated bursts over the rate
// limit against a tightly bounded cache. Shed requests get 429/503, every
// admitted answer is bit-identical to the offline reference, the cache
// never exceeds its bound, and shutdown drains without leaking goroutines.
func TestChaosDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("load drill")
	}
	before := runtime.NumGoroutine()

	cfg := config{
		rate: 40, burst: 8,
		concurrency: 4, queueDepth: 4, queueWait: 500 * time.Millisecond,
		reqTimeout: 30 * time.Second,
		cacheBound: 8,
	}
	s := newServer(cfg)
	if err := s.start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// Offline references for every grid the drill queries.
	ks := []int64{64, 128, 192, 256, 320, 512}
	wantV := make(map[int64]int64)
	wantT := make(map[int64]float64)
	for _, k := range ks {
		v, tt := offlineAnswer(t, reqJSON(k, ""), sim.Overlapped)
		wantV[k], wantT[k] = v, tt
	}

	tenants := []string{"red", "green", "blue"}
	var ok200, shed int
	for burst := 0; burst < 10; burst++ {
		const perBurst = 16
		type reply struct {
			k    int64
			code int
			body string
		}
		replies := make(chan reply, perBurst)
		for i := 0; i < perBurst; i++ {
			k := ks[(burst+i)%len(ks)]
			tenant := tenants[i%len(tenants)]
			go func() {
				resp, out := postPlan(t, s.addr, reqJSON(k, tenant))
				replies <- reply{k, resp.StatusCode, out}
			}()
		}
		for i := 0; i < perBurst; i++ {
			rep := <-replies
			switch rep.code {
			case http.StatusOK:
				ok200++
				res, err := planapi.DecodeResult(strings.NewReader(rep.body))
				if err != nil {
					t.Fatalf("burst %d: %v in %q", burst, err, rep.body)
				}
				if res.V != wantV[rep.k] || res.TSeconds != wantT[rep.k] {
					t.Errorf("K=%d: served V=%d t=%g, offline V=%d t=%g",
						rep.k, res.V, res.TSeconds, wantV[rep.k], wantT[rep.k])
				}
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				shed++
			default:
				t.Errorf("burst %d: unexpected status %d: %s", burst, rep.code, rep.body)
			}
		}
		if n := s.cache.Stats().Entries; n > cfg.cacheBound {
			t.Fatalf("burst %d: cache holds %d entries, bound %d", burst, n, cfg.cacheBound)
		}
	}
	if ok200 == 0 {
		t.Error("drill completed zero requests")
	}
	if shed == 0 {
		t.Error("10x-rate bursts were never shed")
	}
	snap := s.metrics.Snapshot()
	if snap.Totals.Shed == 0 || snap.Totals.Admitted == 0 {
		t.Errorf("counters %+v", snap.Totals)
	}
	if uint64(ok200) != snap.Totals.Completed {
		t.Errorf("%d OK responses but Completed=%d", ok200, snap.Totals.Completed)
	}
	st := s.cache.Stats()
	if st.Entries > cfg.cacheBound {
		t.Errorf("cache ended with %d entries, bound %d", st.Entries, cfg.cacheBound)
	}
	if len(ks) > cfg.cacheBound && st.Evictions == 0 {
		t.Error("bounded cache under churn never evicted")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Goroutine-leak check: everything the drill spawned must wind down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before drill, %d after drain\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestHealthzAndMetricsMounted: the liveness probe and the obs debug
// surface share the service listener.
func TestHealthzAndMetricsMounted(t *testing.T) {
	s := testServer(t, defaultConfig())
	for _, path := range []string{"/healthz", "/metrics.json", "/debug/vars"} {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", s.addr, path))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// BenchmarkPlanHot serves a warm-cache /v1/plan request through the
// service mux in process: decode, admission, cache-hit sweep and encode,
// without the network. Allocations per request are the layer's number.
func BenchmarkPlanHot(b *testing.B) {
	cfg := defaultConfig()
	cfg.rate = 0
	s := newServer(cfg)
	h := s.mux()
	body := reqJSON(256, "hot")
	serve := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		b.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serve(); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
