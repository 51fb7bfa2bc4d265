package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServiceMetricsSnapshot: counters land in the right tenant row, the
// totals sum across tenants, and rows come out sorted by tenant name.
func TestServiceMetricsSnapshot(t *testing.T) {
	sm := NewServiceMetrics()
	b := sm.Tenant("bravo")
	a := sm.Tenant("alpha")
	a.Admitted.Add(3)
	a.Completed.Add(2)
	a.Cancelled.Add(1)
	b.Admitted.Add(1)
	b.Shed.Add(4)
	b.Completed.Add(1)

	snap := sm.Snapshot()
	if len(snap.Tenants) != 2 || snap.Tenants[0].Tenant != "alpha" || snap.Tenants[1].Tenant != "bravo" {
		t.Fatalf("tenants not sorted: %+v", snap.Tenants)
	}
	if snap.Tenants[0].Admitted != 3 || snap.Tenants[0].Cancelled != 1 {
		t.Errorf("alpha row %+v", snap.Tenants[0])
	}
	if snap.Tenants[1].Shed != 4 || snap.Tenants[1].Completed != 1 {
		t.Errorf("bravo row %+v", snap.Tenants[1])
	}
	tot := snap.Totals
	if tot.Admitted != 4 || tot.Shed != 4 || tot.Completed != 3 || tot.Cancelled != 1 {
		t.Errorf("totals %+v", tot)
	}
	if snap.Cache != nil {
		t.Errorf("cache gauges present without a callback: %v", snap.Cache)
	}
}

// TestServiceMetricsSameTenantSameRow: Tenant is get-or-create, so two
// lookups share one row and concurrent increments are not lost.
func TestServiceMetricsSameTenantSameRow(t *testing.T) {
	sm := NewServiceMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sm.Tenant("t").Admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := sm.Snapshot().Totals.Admitted; got != 800 {
		t.Errorf("admitted = %d, want 800", got)
	}
}

// TestServiceMetricsTenantCap: rows stop growing at maxTenants; every
// later label shares the overflow row, and the totals still count every
// request.
func TestServiceMetricsTenantCap(t *testing.T) {
	sm := NewServiceMetrics()
	const names = maxTenants + 100
	for i := 0; i < names; i++ {
		c := sm.Tenant(fmt.Sprintf("tenant-%d", i))
		c.Shed.Add(2)
		c.Admitted.Add(1)
	}
	snap := sm.Snapshot()
	if len(snap.Tenants) > maxTenants+1 {
		t.Errorf("%d tenant rows for %d names, cap %d", len(snap.Tenants), names, maxTenants)
	}
	if snap.Totals.Shed != 2*names || snap.Totals.Admitted != names {
		t.Errorf("totals %+v, want shed %d admitted %d", snap.Totals, 2*names, names)
	}
	var overflow *TenantSnapshot
	for i := range snap.Tenants {
		if snap.Tenants[i].Tenant == overflowTenant {
			overflow = &snap.Tenants[i]
		}
	}
	if overflow == nil || overflow.Admitted != names-maxTenants {
		t.Errorf("overflow row %+v, want %d admitted", overflow, names-maxTenants)
	}
	if sm.Tenant("tenant-0") == sm.Tenant(overflowTenant) {
		t.Error("a tenant admitted before the cap lost its own row")
	}
}

// TestServiceMetricsCacheGauges: the callback's gauges ride along in the
// snapshot, and clearing the callback removes them.
func TestServiceMetricsCacheGauges(t *testing.T) {
	sm := NewServiceMetrics()
	sm.SetCacheGauges(func() map[string]uint64 {
		return map[string]uint64{"entries": 7, "evictions": 2}
	})
	snap := sm.Snapshot()
	if snap.Cache["entries"] != 7 || snap.Cache["evictions"] != 2 {
		t.Errorf("cache gauges %v", snap.Cache)
	}
	sm.SetCacheGauges(nil)
	if snap := sm.Snapshot(); snap.Cache != nil {
		t.Errorf("cache gauges survive a nil callback: %v", snap.Cache)
	}
}

// TestRegistryServiceSection: a registered service appears under
// "service" in the JSON dump; an unregistered one leaves the section out.
func TestRegistryServiceSection(t *testing.T) {
	reg := NewRegistry()
	var plain strings.Builder
	if err := reg.WriteJSON(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), `"service"`) {
		t.Errorf("service section without a registered service:\n%s", plain.String())
	}

	sm := NewServiceMetrics()
	sm.Tenant("team-a").Shed.Add(9)
	reg.RegisterService(sm)
	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Service *ServiceSnapshot `json:"service"`
	}
	if err := json.Unmarshal([]byte(b.String()), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Service == nil || dump.Service.Totals.Shed != 9 {
		t.Errorf("service section missing or wrong: %+v", dump.Service)
	}
}

// TestStartShutdown: Start serves the debug surface with the standard
// timeouts and Shutdown drains it within the deadline.
func TestStartShutdown(t *testing.T) {
	reg := NewRegistry()
	srv, err := reg.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics.json", srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics.json status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics.json", srv.Addr)); err == nil {
		t.Error("server still serving after Shutdown")
	}
}

// TestHTTPTimeouts pins the timeout profile: every server must bound
// reads, and the write timeout must outlast pprof's 30-second profile
// window.
func TestHTTPTimeouts(t *testing.T) {
	var srv http.Server
	HTTPTimeouts(&srv)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Errorf("unbounded read/idle timeouts: header=%v read=%v idle=%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout <= 30*time.Second {
		t.Errorf("write timeout %v would cut off a default pprof profile", srv.WriteTimeout)
	}
}
