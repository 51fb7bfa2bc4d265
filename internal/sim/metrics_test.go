package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/obs"
)

var metricsGrid = model.Grid3D{I: 8, J: 8, K: 128, PI: 4, PJ: 4}

func metricsConfig(t *testing.T, v int64, mode Mode, cap Capability) Config {
	t.Helper()
	cfg, err := GridConfig(metricsGrid, v, model.PentiumCluster(), mode, cap)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = true
	return cfg
}

// TestMetricsAccountingIdentity: in a zero-fault run the per-resource phase
// totals must satisfy the accounting identity Idle == Makespan − Busy exactly
// (bit-exact float equality, no tolerance — the subtraction form is the one
// float64 can honor; the re-added sum can tie at a half-ulp) for every
// resource, and the report's mean CPU utilization must agree with the
// Result's independently computed CPUUtilization.
func TestMetricsAccountingIdentity(t *testing.T) {
	for _, mode := range []Mode{Blocking, Overlapped} {
		for _, cap := range []Capability{CapNone, CapDMA, CapFullDuplex} {
			res, err := Simulate(metricsConfig(t, 16, mode, cap))
			if err != nil {
				t.Fatal(err)
			}
			r := res.Obs
			if r == nil {
				t.Fatalf("%v/%v: Metrics set but Obs is nil", mode, cap)
			}
			if r.Makespan != res.Makespan {
				t.Errorf("%v/%v: report makespan %g != result %g", mode, cap, r.Makespan, res.Makespan)
			}
			if len(r.Resources) == 0 {
				t.Fatalf("%v/%v: no resource rows", mode, cap)
			}
			for _, st := range r.Resources {
				if st.Idle != res.Makespan-st.Busy {
					t.Errorf("%v/%v %s: idle %g != makespan %g - busy %g",
						mode, cap, st.Name, st.Idle, res.Makespan, st.Busy)
				}
				if st.Busy < 0 || st.Busy > res.Makespan || st.QueueWait < 0 {
					t.Errorf("%v/%v %s: implausible stats %+v", mode, cap, st.Name, st)
				}
			}
			if d := math.Abs(r.MeanCPUUtilization - res.CPUUtilization); d > 1e-9 {
				t.Errorf("%v/%v: report util %g vs result util %g",
					mode, cap, r.MeanCPUUtilization, res.CPUUtilization)
			}
			if r.Retransmits != 0 || r.Pauses != 0 || r.LinkRetransmits != nil {
				t.Errorf("%v/%v: fault counters nonzero in fault-free run: %+v",
					mode, cap, r)
			}
		}
	}
}

// TestMetricsMatchTrace: the interval-log report (synthesized resource
// names, metrics-only machinery) must deep-equal the report rebuilt from the
// labeled trace of the same run — the two accounting paths agree entry for
// entry.
func TestMetricsMatchTrace(t *testing.T) {
	for _, mode := range []Mode{Blocking, Overlapped} {
		for _, cap := range []Capability{CapDMA, CapFullDuplex} {
			cfg := metricsConfig(t, 16, mode, cap)
			cfg.Trace = true
			res, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			fromTrace := obs.Analyze(res.Makespan, obs.TracksFromTrace(res.Trace))
			// The trace never mentions resources that ran nothing (e.g. the
			// corner nodes' unused rx/tx ports), while the interval report
			// lists every built resource; compare modulo those all-idle rows.
			got := *res.Obs
			got.Resources = nil
			for _, st := range res.Obs.Resources {
				if st.Activities > 0 {
					got.Resources = append(got.Resources, st)
				}
			}
			if !reflect.DeepEqual(&got, fromTrace) {
				t.Errorf("%v/%v: interval report and trace report diverge:\n%+v\nvs\n%+v",
					mode, cap, &got, fromTrace)
			}
		}
	}
}

// TestMetricsSharedBus: the bus resource must appear in the report and take
// part in the comm accounting.
func TestMetricsSharedBus(t *testing.T) {
	cfg := metricsConfig(t, 16, Overlapped, CapDMA)
	cfg.Network = SharedBus
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bus *obs.ResourceStats
	for i := range res.Obs.Resources {
		if res.Obs.Resources[i].Kind == obs.KindBus {
			bus = &res.Obs.Resources[i]
		}
	}
	if bus == nil || bus.Busy <= 0 {
		t.Fatalf("bus missing or idle in shared-bus report: %+v", bus)
	}
}

// TestOverlapEfficiencyOverlappedBeatsBlocking: at the overlapped schedule's
// optimal tile height, the pipelined schedule must hide a strictly larger
// fraction of its communication time than the blocking one — that hiding is
// the paper's entire mechanism.
func TestOverlapEfficiencyOverlappedBeatsBlocking(t *testing.T) {
	m := model.PentiumCluster()
	vOpt, _, err := metricsGrid.OptimalVOverlapAnalytic(m)
	if err != nil {
		t.Fatal(err)
	}
	v := int64(math.Round(vOpt))
	if v < 1 {
		v = 1
	}
	if v > metricsGrid.K {
		v = metricsGrid.K
	}
	ov, err := SimulateGrid(metricsGrid, v, m, Overlapped, CapDMA, GridOpts{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := SimulateGrid(metricsGrid, v, m, Blocking, CapDMA, GridOpts{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if ov.Obs.OverlapEfficiency <= bl.Obs.OverlapEfficiency {
		t.Errorf("at v=%d overlapped efficiency %.3f not above blocking %.3f",
			v, ov.Obs.OverlapEfficiency, bl.Obs.OverlapEfficiency)
	}
	if ov.Obs.OverlapEfficiency <= 0.5 {
		t.Errorf("overlapped schedule at its optimum hides only %.1f%% of comm",
			100*ov.Obs.OverlapEfficiency)
	}
}

// TestMetricsFaultCounters: an active fault plan's injected events must show
// up in the report, and the per-link breakdown must sum to the total.
func TestMetricsFaultCounters(t *testing.T) {
	// Seed 3 is chosen to deterministically yield both losses and pauses at
	// this intensity on this grid (some seeds produce neither by chance).
	fp := fault.Default(3, 0.9)
	res, err := SimulateGrid(model.Grid3D{I: 8, J: 8, K: 512, PI: 2, PJ: 2},
		64, model.PentiumCluster(), Overlapped, CapDMA,
		GridOpts{Fault: fp, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Obs
	if r.Retransmits == 0 {
		t.Error("high-intensity loss plan produced no retransmits")
	}
	sum := 0
	for _, n := range r.LinkRetransmits {
		sum += n
	}
	if sum != r.Retransmits {
		t.Errorf("per-link retransmits sum %d != total %d", sum, r.Retransmits)
	}
	if r.Pauses == 0 {
		t.Error("high-intensity pause plan produced no pauses")
	}
}

// TestCacheMetricsKey: the metrics flag is part of the cache key (a metrics
// Result carries the Obs report the plain one lacks), and a metrics hit
// returns the identical shared report.
func TestCacheMetricsKey(t *testing.T) {
	c := NewCache()
	m := model.PentiumCluster()
	plain, err := c.SimulateGridCtx(context.Background(), metricsGrid, 16, m, Overlapped, CapDMA, GridOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Obs != nil {
		t.Error("plain cached run unexpectedly carries a report")
	}
	with, err := c.SimulateGridCtx(context.Background(), metricsGrid, 16, m, Overlapped, CapDMA, GridOpts{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Obs == nil {
		t.Fatal("metrics cached run missing its report")
	}
	if with.Makespan != plain.Makespan {
		t.Errorf("metrics pass changed the makespan: %g vs %g", with.Makespan, plain.Makespan)
	}
	hit, err := c.SimulateGridCtx(context.Background(), metricsGrid, 16, m, Overlapped, CapDMA, GridOpts{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Obs != with.Obs {
		t.Error("cache hit rebuilt the report instead of sharing it")
	}
	if c.Stats().Entries != 2 {
		t.Errorf("cache holds %d entries, want 2", c.Stats().Entries)
	}
}
