package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/planapi"
	"repro/internal/sim"
)

// config is everything a server instance needs, factored out of flags so
// in-process tests can build servers directly.
type config struct {
	rate        float64       // admitted requests/second (<=0 unlimited)
	burst       int           // token-bucket burst allowance
	concurrency int           // concurrent sweeps
	queueDepth  int           // admitted requests allowed to wait for a slot
	queueWait   time.Duration // longest a queued request waits
	reqTimeout  time.Duration // per-request evaluation deadline
	cacheBound  int           // cache entry bound (0 = unbounded)
	now         func() time.Time
}

func defaultConfig() config {
	return config{
		rate: 50, burst: 100,
		concurrency: 4, queueDepth: 16, queueWait: 2 * time.Second,
		reqTimeout: 30 * time.Second,
		cacheBound: 4096,
	}
}

// planCall is one in-flight evaluation shared by every concurrent request
// with the same planapi key. The evaluation context is refcounted: it dies
// when the last interested client disconnects, so an abandoned sweep
// aborts promptly instead of burning a slot, but survives any single
// waiter's departure while others still want the answer.
type planCall struct {
	done   chan struct{} // closed once res/err are final
	cancel context.CancelFunc
	refs   int // guarded by server.mu
	res    planapi.PlanResult
	err    error
}

// server is the planning service: admission control in front of the
// request-level singleflight in front of the bounded evaluation cache in
// front of the DES engine.
type server struct {
	cfg     config
	cache   *sim.Cache
	metrics *obs.ServiceMetrics
	reg     *obs.Registry
	bucket  *tokenBucket
	gate    *slotGate

	mu       sync.Mutex
	inflight map[string]*planCall

	// baseCtx parents every evaluation; cancelling it (drain deadline
	// expired) aborts all in-flight DES work.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	httpSrv *http.Server
	addr    string

	// testHook, when set, runs inside each evaluation before the sweep —
	// the tests' lever for injecting panics and stalls.
	testHook func(q planapi.PlanRequest)
}

func newServer(cfg config) *server {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &server{
		cfg:      cfg,
		cache:    sim.NewCacheBounded(cfg.cacheBound),
		metrics:  obs.NewServiceMetrics(),
		reg:      obs.NewRegistry(),
		bucket:   newTokenBucket(cfg.rate, cfg.burst, cfg.now),
		gate:     newSlotGate(cfg.concurrency, cfg.queueDepth, cfg.queueWait),
		inflight: make(map[string]*planCall),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.metrics.SetCacheGauges(func() map[string]uint64 {
		st := s.cache.Stats()
		return map[string]uint64{
			"hits": st.Hits, "misses": st.Misses, "evals": st.Evals,
			"coalesced": st.Coalesced, "evictions": st.Evictions,
			"entries": uint64(st.Entries), "max_entries": uint64(s.cache.MaxEntries()),
		}
	})
	s.reg.RegisterService(s.metrics)
	return s
}

// mux assembles the service surface: the plan API, a liveness probe, and
// the registry's debug/metrics pages on the same listener.
func (s *server) mux() *http.ServeMux {
	mux := s.reg.DebugMux()
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// start binds addr and serves until Shutdown/Close. It returns once the
// listener is bound, with the resolved address in s.addr.
func (s *server) start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("tileserve: listen: %w", err)
	}
	s.addr = ln.Addr().String()
	s.httpSrv = &http.Server{Handler: s.mux()}
	obs.HTTPTimeouts(s.httpSrv)
	go s.httpSrv.Serve(ln)
	return nil
}

// shutdown drains gracefully: stop accepting, let in-flight requests
// finish until ctx expires, then cancel every remaining evaluation and
// close. Returns nil when the drain completed cleanly.
func (s *server) shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	s.baseCancel() // abort any evaluation that outlived the drain
	if err != nil {
		s.httpSrv.Close()
	}
	return err
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), time.Second)
	defer cancel()
	_ = ctx
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handlePlan is the admission pipeline: decode/validate (400) → rate
// limit (429 + Retry-After) → concurrency gate with bounded queue (503) →
// coalesced, cache-backed, cancellable evaluation. Every response path
// lands in exactly one tenant counter.
func (s *server) handlePlan(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.reqTimeout)
	defer cancel()

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q, err := planapi.DecodeRequest(http.MaxBytesReader(w, r.Body, planapi.MaxBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tc := s.metrics.Tenant(q.Tenant)

	if ok, retry := s.bucket.take(); !ok {
		tc.Shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
		http.Error(w, "rate limit exceeded", http.StatusTooManyRequests)
		return
	}
	release, ok, gateErr := s.gate.acquire(ctx)
	if gateErr != nil {
		tc.Cancelled.Add(1)
		http.Error(w, gateErr.Error(), statusForCtxErr(gateErr))
		return
	}
	if !ok {
		tc.Shed.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server at capacity", http.StatusServiceUnavailable)
		return
	}
	defer release()
	tc.Admitted.Add(1)

	call, leader := s.attach(q)
	defer s.detach(q.Key(), call)
	if !leader {
		tc.Coalesced.Add(1)
	}
	select {
	case <-call.done:
	case <-ctx.Done():
		tc.Cancelled.Add(1)
		http.Error(w, ctx.Err().Error(), statusForCtxErr(ctx.Err()))
		return
	}
	switch {
	case call.err == nil:
		tc.Completed.Add(1)
		w.Header().Set("Content-Type", "application/json")
		planapi.EncodeResult(w, call.res)
	case errors.Is(call.err, context.Canceled), errors.Is(call.err, context.DeadlineExceeded):
		tc.Cancelled.Add(1)
		http.Error(w, call.err.Error(), statusForCtxErr(call.err))
	case errors.As(call.err, new(panicError)):
		tc.Panics.Add(1)
		http.Error(w, "internal error", http.StatusInternalServerError)
	default:
		tc.Completed.Add(1) // served an answer, albeit an error
		http.Error(w, call.err.Error(), http.StatusInternalServerError)
	}
}

func statusForCtxErr(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return 499 // client closed request (nginx convention); never seen by the client
}

// attach joins (or starts) the in-flight evaluation for q. The second
// return is true for the leader — the request that triggered the
// evaluation; followers coalesce onto it.
func (s *server) attach(q planapi.PlanRequest) (*planCall, bool) {
	key := q.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if call := s.inflight[key]; call != nil {
		call.refs++
		return call, false
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.reqTimeout)
	call := &planCall{done: make(chan struct{}), cancel: cancel, refs: 1}
	s.inflight[key] = call
	go s.evaluate(ctx, key, q, call)
	return call, true
}

// detach drops one waiter; when the last one leaves, the evaluation's
// context is cancelled — an answer nobody wants stops consuming the
// engine. (Cancelling an already-finished call is a no-op.)
func (s *server) detach(key string, call *planCall) {
	s.mu.Lock()
	call.refs--
	last := call.refs == 0
	s.mu.Unlock()
	if last {
		call.cancel()
	}
}

// panicError marks an evaluation that died by panic, so the handler can
// distinguish "our bug" (500 + Panics counter) from a clean error.
type panicError struct{ v any }

func (e panicError) Error() string { return fmt.Sprintf("evaluation panicked: %v", e.v) }

// evaluate runs one plan query to completion (or cancellation) and
// publishes the result to every attached waiter. Panics are contained
// here: one poisoned request must never take the process down.
func (s *server) evaluate(ctx context.Context, key string, q planapi.PlanRequest, call *planCall) {
	defer func() {
		if p := recover(); p != nil {
			call.err = panicError{p}
		}
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		call.cancel()
		close(call.done)
	}()
	if s.testHook != nil {
		s.testHook(q)
	}
	call.res, call.err = s.answer(ctx, q)
}

// answer computes the PlanResult for a validated request: the same sweep
// construction as `tileplan -optimum`, against the shared bounded cache,
// under the evaluation context.
func (s *server) answer(ctx context.Context, q planapi.PlanRequest) (planapi.PlanResult, error) {
	sw, err := q.Sweep()
	if err != nil {
		return planapi.PlanResult{}, err
	}
	sw.Cache = s.cache
	mode, err := q.SimMode()
	if err != nil {
		return planapi.PlanResult{}, err
	}
	out, err := sw.OptimumDetailCtx(ctx, mode)
	if err != nil {
		return planapi.PlanResult{}, err
	}
	g := sw.Grid
	return planapi.PlanResult{
		Version:        planapi.Version,
		Mode:           mode.String(),
		V:              out.V,
		G:              g.TileVolume(out.V),
		TSeconds:       out.T,
		Tier:           out.Tier.String(),
		Probes:         out.Probes,
		FallbackReason: out.FallbackReason,
		SeedV:          planapi.SeedFor(g, sw.Machine, mode),
	}, nil
}
