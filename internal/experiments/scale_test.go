package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// tinyScale is DefaultScaleSweep shrunk to test size: same shape, same
// fat-tree spec scaled down, a few hundred tiles per point.
func tinyScale() ScaleSweep {
	s := DefaultScaleSweep()
	s.Points = []ScalePoint{{2, 2}, {4, 4}, {6, 6}}
	s.V = 16
	s.Interconnect = topo.FatTree(3, 2, 4, 8, 2e-6, 2)
	return s
}

// TestScaleSweepRuns: the sweep completes, rows come back in point order,
// the overlapped schedule wins at every scale, and the accounting columns
// are populated and in range.
func TestScaleSweepRuns(t *testing.T) {
	s := tinyScale()
	rows, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(s.Points) {
		t.Fatalf("got %d rows, want %d", len(rows), len(s.Points))
	}
	for i, r := range rows {
		if want := s.Points[i].Ranks(); r.Ranks != want {
			t.Errorf("row %d: ranks %d, want %d", i, r.Ranks, want)
		}
		if r.OverlapEff <= 0 || r.OverlapEff > 1 {
			t.Errorf("%d ranks: overlap efficiency %g out of (0, 1]", r.Ranks, r.OverlapEff)
		}
		if r.OverlapCPUUtil <= 0 || r.OverlapCPUUtil > 1 {
			t.Errorf("%d ranks: cpu utilization %g out of (0, 1]", r.Ranks, r.OverlapCPUUtil)
		}
		if r.LinkBusy <= 0 {
			t.Errorf("%d ranks: fabric carried no traffic (link busy %g)", r.Ranks, r.LinkBusy)
		}
	}
	if err := CheckScale(rows); err != nil {
		t.Error(err)
	}
	out := FormatScale(s, rows)
	if !strings.Contains(out, "ranks") || !strings.Contains(out, "36") {
		t.Errorf("format output missing expected columns:\n%s", out)
	}
	var csv strings.Builder
	if err := ScaleCSV(&csv, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != len(rows)+1 {
		t.Errorf("csv has %d lines, want %d", lines, len(rows)+1)
	}
}

// TestScaleSweepDeterministic: two runs (one against a shared cache, one
// cold) produce bit-identical rows — the worker pool and the fabric don't
// leak scheduling nondeterminism into the results.
func TestScaleSweepDeterministic(t *testing.T) {
	s := tinyScale()
	s.Points = s.Points[:2]
	s.Cache = sim.NewCache()
	a, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s.Cache = nil
	b, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs across runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestScaleSweepCancel: a pre-cancelled context surfaces as ctx.Err without
// running the sweep.
func TestScaleSweepCancel(t *testing.T) {
	s := tinyScale()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunCtx(ctx); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
