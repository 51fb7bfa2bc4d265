package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
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

// server is the planning service: admission control in front of the
// bounded evaluation cache in front of the DES engine. The cache is the
// one coalescing layer: concurrent identical requests each run their own
// sweep, and the cache evaluates every point they share once.
type server struct {
	cfg     config
	cache   *sim.Cache
	metrics *obs.ServiceMetrics
	reg     *obs.Registry
	bucket  *tokenBucket
	gate    *slotGate

	// baseCtx parents every request context (http.Server.BaseContext);
	// cancelling it (drain deadline expired) aborts all in-flight DES work.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	httpSrv *http.Server
	addr    string

	// testHook, when set, runs inside each evaluation before the sweep,
	// under the request's context — the tests' lever for injecting panics
	// and stalls.
	testHook func(ctx context.Context, q planapi.PlanRequest)
}

func newServer(cfg config) *server {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &server{
		cfg:     cfg,
		cache:   sim.NewCacheBounded(cfg.cacheBound),
		metrics: obs.NewServiceMetrics(),
		reg:     obs.NewRegistry(),
		bucket:  newTokenBucket(cfg.rate, cfg.burst, cfg.now),
		gate:    newSlotGate(cfg.concurrency, cfg.queueDepth, cfg.queueWait),
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
	s.httpSrv = &http.Server{
		Handler:     s.mux(),
		BaseContext: func(net.Listener) context.Context { return s.baseCtx },
	}
	obs.HTTPTimeouts(s.httpSrv)
	go s.httpSrv.Serve(ln)
	return nil
}

// shutdown drains gracefully: stop accepting, let in-flight requests
// finish until ctx expires, then cancel every remaining request context
// (each derives from baseCtx) and close. Returns nil when the drain
// completed cleanly.
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
// cache-backed evaluation on this goroutine, under the request's context.
// Every decoded request lands in exactly one of Shed or Admitted, and
// every admitted one in exactly one of Completed, Cancelled or Panics.
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
	if gateErr != nil { // gave up while queued: never admitted
		tc.Shed.Add(1)
		http.Error(w, gateErr.Error(), statusForCtxErr(gateErr))
		return
	}
	if !ok {
		tc.Shed.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server at capacity", http.StatusServiceUnavailable)
		return
	}
	// The slot is held until the sweep returns, so a client that
	// disconnects mid-evaluation keeps it until the sweep stops at the
	// next DES-evaluation boundary.
	defer release()
	tc.Admitted.Add(1)

	res, err := s.evaluate(ctx, q)
	switch {
	case err == nil:
		tc.Completed.Add(1)
		w.Header().Set("Content-Type", "application/json")
		planapi.EncodeResult(w, res)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		tc.Cancelled.Add(1)
		http.Error(w, err.Error(), statusForCtxErr(err))
	case errors.As(err, new(panicError)):
		tc.Panics.Add(1)
		http.Error(w, "internal error", http.StatusInternalServerError)
	default:
		tc.Completed.Add(1) // served an answer, albeit an error
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func statusForCtxErr(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	return 499 // client closed request (nginx convention); never seen by the client
}

// panicError marks an evaluation that died by panic, so the handler can
// distinguish "our bug" (500 + Panics counter) from a clean error.
type panicError struct{ v any }

func (e panicError) Error() string { return fmt.Sprintf("evaluation panicked: %v", e.v) }

// evaluate computes the PlanResult for a validated request: the same
// sweep construction as `tileplan -optimum`, against the shared bounded
// cache, under ctx. Panics are contained here (estimate re-raises one from
// the bracket pair's second goroutine onto this one): one poisoned request
// must never take the process down.
func (s *server) evaluate(ctx context.Context, q planapi.PlanRequest) (res planapi.PlanResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicError{p}
		}
	}()
	if s.testHook != nil {
		s.testHook(ctx, q)
	}
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
