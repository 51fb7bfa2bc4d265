package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// ServiceMetrics is the planning service's admission-side observability:
// per-tenant counters for every fate a request can meet (admitted, shed,
// cancelled, panicked, completed) plus a pluggable gauge callback for the
// evaluation cache, whose own coalesced gauge counts shared evaluations.
// It rides the same Registry/expvar/HTTP plumbing CommMetrics uses, so one
// /metrics.json read shows both where a cluster's time went and where a
// service's requests went.
//
// The import direction forces the cache indirection: sim imports obs for
// fault counters, so obs cannot import sim to read sim.CacheStats.
// SetCacheGauges accepts a plain func() map[string]uint64 instead; the
// service wires it to its cache at startup.
type ServiceMetrics struct {
	mu      sync.Mutex
	tenants map[string]*TenantCounters
	cacheFn atomic.Pointer[func() map[string]uint64]
}

// maxTenants caps the tenant rows; every later label counts in the
// overflowTenant row, whose name lies outside planapi's tenant alphabet so
// no real tenant collides with it. Totals still sum every request.
const (
	maxTenants     = 256
	overflowTenant = "*"
)

// NewServiceMetrics returns an empty collector.
func NewServiceMetrics() *ServiceMetrics {
	return &ServiceMetrics{tenants: make(map[string]*TenantCounters)}
}

// TenantCounters counts one tenant's request fates. All fields are
// monotone; increment them directly. A decoded request is either Shed
// (refused, or gave up while queued; never admitted) or Admitted, and an
// admitted one then lands in exactly one of Completed, Cancelled or Panics.
type TenantCounters struct {
	Admitted  atomic.Uint64
	Shed      atomic.Uint64
	Cancelled atomic.Uint64
	Panics    atomic.Uint64
	Completed atomic.Uint64
}

// TenantSnapshot is one tenant's counters at a point in time.
type TenantSnapshot struct {
	Tenant    string `json:"tenant"`
	Admitted  uint64 `json:"admitted"`
	Shed      uint64 `json:"shed"`
	Cancelled uint64 `json:"cancelled"`
	Panics    uint64 `json:"panics"`
	Completed uint64 `json:"completed"`
}

// ServiceSnapshot is the full service section of a metrics dump: every
// tenant (sorted by name, so dumps are diffable), the cross-tenant totals,
// and the cache gauges if a callback is installed (keys sorted by
// encoding/json).
type ServiceSnapshot struct {
	Tenants []TenantSnapshot  `json:"tenants"`
	Totals  TenantSnapshot    `json:"totals"`
	Cache   map[string]uint64 `json:"cache,omitempty"`
}

// Tenant returns the counters for name, creating them on first use. The
// caller has already validated name (planapi bounds tenant labels), so an
// unknown tenant is a new row, not an error, until maxTenants rows exist;
// then it is the overflow row. The empty name is the anonymous tenant.
func (s *ServiceMetrics) Tenant(name string) *TenantCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[name]
	if t == nil && len(s.tenants) >= maxTenants {
		name = overflowTenant
		t = s.tenants[name]
	}
	if t == nil {
		t = &TenantCounters{}
		s.tenants[name] = t
	}
	return t
}

// SetCacheGauges installs (or replaces) the cache-gauge callback. The
// callback must be safe for concurrent use; it is invoked on every
// snapshot.
func (s *ServiceMetrics) SetCacheGauges(fn func() map[string]uint64) {
	if fn == nil {
		s.cacheFn.Store(nil)
		return
	}
	s.cacheFn.Store(&fn)
}

// Snapshot captures every tenant's counters, the totals, and the cache
// gauges. Tenants are sorted by name for deterministic output.
func (s *ServiceMetrics) Snapshot() ServiceSnapshot {
	s.mu.Lock()
	names := make([]string, 0, len(s.tenants))
	rows := make(map[string]*TenantCounters, len(s.tenants))
	for name, t := range s.tenants {
		names = append(names, name)
		rows[name] = t
	}
	s.mu.Unlock()
	sort.Strings(names)

	out := ServiceSnapshot{Tenants: make([]TenantSnapshot, 0, len(names))}
	out.Totals.Tenant = "total"
	for _, name := range names {
		t := rows[name]
		snap := TenantSnapshot{
			Tenant:    name,
			Admitted:  t.Admitted.Load(),
			Shed:      t.Shed.Load(),
			Cancelled: t.Cancelled.Load(),
			Panics:    t.Panics.Load(),
			Completed: t.Completed.Load(),
		}
		out.Tenants = append(out.Tenants, snap)
		out.Totals.Admitted += snap.Admitted
		out.Totals.Shed += snap.Shed
		out.Totals.Cancelled += snap.Cancelled
		out.Totals.Panics += snap.Panics
		out.Totals.Completed += snap.Completed
	}
	if fn := s.cacheFn.Load(); fn != nil {
		out.Cache = (*fn)()
	}
	return out
}
