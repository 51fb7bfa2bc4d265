package experiments

import (
	"bufio"
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

func testRecoverySweep() RecoverySweep {
	return RecoverySweep{
		ID:          "rec-test",
		Grid:        model.Grid3D{I: 8, J: 8, K: 512, PI: 2, PJ: 2},
		Machine:     model.PentiumCluster(),
		Cap:         sim.CapFullDuplex,
		V:           32,
		Seed:        7,
		Intervals:   []int64{1, 2, 4, 8},
		Intensities: []float64{0, 0.25, 0.5, 1.0},
	}
}

func TestRecoverySweepTradeoff(t *testing.T) {
	s := testRecoverySweep()
	rows, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(s.Intervals)*len(s.Intensities) {
		t.Fatalf("got %d rows, want %d", len(rows), len(s.Intervals)*len(s.Intensities))
	}
	if err := CheckRecoveryTradeoff(rows); err != nil {
		t.Fatalf("tradeoff shape: %v\n%s", err, FormatRecovery(s, rows))
	}
	// The anchor is shared and every completion inflates it.
	for _, r := range rows {
		if r.FaultFree != rows[0].FaultFree {
			t.Fatalf("fault-free anchor varies across rows: %g vs %g", r.FaultFree, rows[0].FaultFree)
		}
		if r.InflationX < 1 {
			t.Fatalf("inflation %g < 1 at intensity %g interval %d", r.InflationX, r.Intensity, r.Interval)
		}
	}
	// The Young/Daly signature proper: under the heaviest faults the best
	// interval must not be longer than under none, and at intensity 0 there
	// is no rework at all.
	best := BestIntervals(rows)
	if best[1.0] > best[0] {
		t.Errorf("best interval grew under faults: %d at x=1 vs %d at x=0", best[1.0], best[0])
	}
	for _, r := range rows {
		if r.Intensity == 0 && (r.Rework != 0 || r.ExpFailures != 0 || r.YoungOpt != 0) {
			t.Errorf("intensity 0 row carries failure terms: %+v", r)
		}
		if r.Intensity > 0 && r.YoungOpt <= 0 {
			t.Errorf("missing Young estimate at intensity %g", r.Intensity)
		}
	}
}

func TestRecoverySweepDeterministic(t *testing.T) {
	s := testRecoverySweep()
	a, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("recovery sweep is not deterministic across runs")
	}
}

func TestRecoveryCSVConventions(t *testing.T) {
	s := testRecoverySweep()
	rows, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RecoveryCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("empty CSV")
	}
	header := sc.Text()
	if header != "intensity,interval_tiles,faultfree_s,faulty_s,ck_overhead_s,expected_failures,rework_s,completion_s,inflation_x,young_opt_tiles" {
		t.Fatalf("header drifted: %s", header)
	}
	for _, col := range strings.Split(header, ",") {
		if col != strings.ToLower(col) || strings.ContainsAny(col, " -") {
			t.Errorf("header column %q is not lower_snake", col)
		}
	}
	n := 0
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ",")
		if len(fields) != 10 {
			t.Fatalf("row %d has %d fields: %s", n, len(fields), sc.Text())
		}
		n++
	}
	if n != len(rows) {
		t.Fatalf("CSV has %d data rows, want %d", n, len(rows))
	}
}

func TestRecoverySweepValidate(t *testing.T) {
	bad := testRecoverySweep()
	bad.Intervals = []int64{4, 2}
	if _, err := bad.RunCtx(context.Background()); err == nil {
		t.Error("descending intervals accepted")
	}
	bad = testRecoverySweep()
	bad.Intensities = []float64{0.5, 0.25}
	if _, err := bad.RunCtx(context.Background()); err == nil {
		t.Error("descending intensities accepted")
	}
	bad = testRecoverySweep()
	bad.V = 0
	if _, err := bad.RunCtx(context.Background()); err == nil {
		t.Error("zero tile height accepted")
	}
}
