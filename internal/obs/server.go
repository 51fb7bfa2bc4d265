package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry aggregates the CommMetrics of every rank hosted by this process
// (one for a real tilenode, several for an in-process cluster) and at most
// one ServiceMetrics (for a planning service) behind a single snapshot,
// expvar variable, and HTTP endpoint.
type Registry struct {
	mu       sync.Mutex
	ranks    map[int]*CommMetrics
	service  *ServiceMetrics
	recovery *RecoveryMetrics
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ranks: make(map[int]*CommMetrics)}
}

// Register adds (or replaces) the collector for its rank.
func (r *Registry) Register(m *CommMetrics) {
	r.mu.Lock()
	r.ranks[m.rank] = m
	r.mu.Unlock()
}

// RegisterService attaches a planning service's metrics; its snapshot
// appears as the "service" section of WriteJSON and the expvar variable.
// At most one service is tracked; the latest call wins.
func (r *Registry) RegisterService(s *ServiceMetrics) {
	r.mu.Lock()
	r.service = s
	r.mu.Unlock()
}

// RegisterRecovery attaches a supervisor's recovery metrics; the snapshot
// appears as the "recovery" section of WriteJSON and the expvar variable.
// At most one is tracked; the latest call wins.
func (r *Registry) RegisterRecovery(m *RecoveryMetrics) {
	r.mu.Lock()
	r.recovery = m
	r.mu.Unlock()
}

// Snapshot returns one CommSnapshot per registered rank, ordered by rank.
func (r *Registry) Snapshot() []CommSnapshot {
	r.mu.Lock()
	metrics := make([]*CommMetrics, 0, len(r.ranks))
	for _, m := range r.ranks {
		metrics = append(metrics, m)
	}
	r.mu.Unlock()
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].rank < metrics[j].rank })
	out := make([]CommSnapshot, len(metrics))
	for i, m := range metrics {
		out[i] = m.Snapshot()
	}
	return out
}

// snapshotAll is the full dump: comm ranks plus the service section when a
// service is registered.
func (r *Registry) snapshotAll() any {
	r.mu.Lock()
	svc := r.service
	rec := r.recovery
	r.mu.Unlock()
	dump := struct {
		Ranks    []CommSnapshot    `json:"ranks"`
		Service  *ServiceSnapshot  `json:"service,omitempty"`
		Recovery *RecoverySnapshot `json:"recovery,omitempty"`
	}{Ranks: r.Snapshot()}
	if svc != nil {
		s := svc.Snapshot()
		dump.Service = &s
	}
	if rec != nil {
		s := rec.Snapshot()
		dump.Recovery = &s
	}
	return dump
}

// WriteJSON writes the registry snapshot as indented JSON — the teardown
// dump format and the /metrics.json response body. When a ServiceMetrics
// is registered its per-tenant counters appear under "service".
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.snapshotAll())
}

// expvar.Publish panics on duplicate names and offers no unpublish, so the
// process-wide "tilecomm" variable is published once and indirects through
// an atomic pointer to whichever registry called Publish most recently.
var (
	publishOnce  sync.Once
	publishedReg atomic.Pointer[Registry]
)

// Publish makes this registry the source of the process-wide "tilecomm"
// expvar variable (shown under /debug/vars). Safe to call repeatedly and
// from multiple registries; the latest call wins.
func (r *Registry) Publish() {
	publishedReg.Store(r)
	publishOnce.Do(func() {
		expvar.Publish("tilecomm", expvar.Func(func() any {
			if reg := publishedReg.Load(); reg != nil {
				return reg.snapshotAll()
			}
			return nil
		}))
	})
}

// DebugMux returns a mux serving the registry's debug surface:
//
//	/debug/vars     expvar, including the "tilecomm" registry snapshot
//	/debug/pprof/   live profiling (net/http/pprof)
//	/metrics.json   the registry snapshot alone, indented
//
// Servers that host their own API (cmd/tileserve) mount this alongside
// their handlers instead of running a second listener.
func (r *Registry) DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// MetricsServer is a running debug/metrics HTTP server. Shut it down
// gracefully with Shutdown (drains in-flight scrapes) or abruptly with
// Close.
type MetricsServer struct {
	// Addr is the bound listen address (host:port).
	Addr string
	srv  *http.Server
}

// Shutdown stops accepting connections and waits for in-flight requests
// to finish, up to ctx's deadline.
func (s *MetricsServer) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// Close abruptly closes the listener and every active connection.
func (s *MetricsServer) Close() error { return s.srv.Close() }

// HTTPTimeouts returns the timeout profile every HTTP server in this repo
// uses. Headers and request bodies are small, so reads are tight; the
// write timeout must outlast /debug/pprof/profile's 30-second default
// sample window, so it is generous rather than disabled.
func HTTPTimeouts(srv *http.Server) {
	srv.ReadHeaderTimeout = 5 * time.Second
	srv.ReadTimeout = 15 * time.Second
	srv.WriteTimeout = 90 * time.Second
	srv.IdleTimeout = 2 * time.Minute
}

// Start launches an HTTP server on addr (host:port; use ":0" for an
// OS-assigned port) serving DebugMux with the standard timeout profile.
// The registry is Published as a side effect.
func (r *Registry) Start(addr string) (*MetricsServer, error) {
	r.Publish()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	srv := &http.Server{Handler: r.DebugMux()}
	HTTPTimeouts(srv)
	go srv.Serve(ln)
	return &MetricsServer{Addr: ln.Addr().String(), srv: srv}, nil
}
