package planapi

import (
	"context"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/sim"
)

func validJSON() string {
	return `{"version":1,"space":[16,16,1024],"procs":[4,4],"tenant":"team-a"}`
}

// TestDecodeValid: a well-formed request round-trips through the strict
// decoder with defaults resolved by the accessors, not mutated in place.
func TestDecodeValid(t *testing.T) {
	q, err := DecodeRequest(strings.NewReader(validJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if q.Version != 1 || q.Space[2] != 1024 || q.Tenant != "team-a" {
		t.Fatalf("decoded %+v", q)
	}
	mode, err := q.SimMode()
	if err != nil || mode != sim.Overlapped {
		t.Fatalf("default mode = %v, %v; want overlapped", mode, err)
	}
	m, err := q.MachineModel()
	if err != nil {
		t.Fatal(err)
	}
	if want := model.PentiumCluster(); m != want {
		t.Fatalf("default machine = %+v, want pentium cluster", m)
	}
	g, err := q.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g != (model.Grid3D{I: 16, J: 16, K: 1024, PI: 4, PJ: 4}) {
		t.Fatalf("grid = %+v", g)
	}
}

// TestDecodeRejects: every malformed shape the strict decoder must refuse.
func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"empty", ``, "decode"},
		{"truncated", `{"version":1,"space":[16,16`, "decode"},
		{"unknown field", `{"version":1,"space":[16,16,1024],"procs":[4,4],"bogus":1}`, "bogus"},
		{"trailing data", validJSON() + `{"version":1}`, "trailing"},
		{"trailing garbage", validJSON() + `xyz`, "trailing"},
		{"wrong version", `{"version":2,"space":[16,16,1024],"procs":[4,4]}`, "version 2"},
		{"missing version", `{"space":[16,16,1024],"procs":[4,4]}`, "version 0"},
		{"space 2d", `{"version":1,"space":[16,16],"procs":[4,4]}`, "space"},
		{"space 4d", `{"version":1,"space":[16,16,8,8],"procs":[4,4]}`, "space"},
		{"no procs", `{"version":1,"space":[16,16,1024]}`, "procs"},
		{"procs 1d", `{"version":1,"space":[16,16,1024],"procs":[4]}`, "procs"},
		{"zero extent", `{"version":1,"space":[0,16,1024],"procs":[4,4]}`, "planapi"},
		{"negative extent", `{"version":1,"space":[-16,16,1024],"procs":[4,4]}`, "planapi"},
		{"indivisible", `{"version":1,"space":[15,16,1024],"procs":[4,4]}`, "planapi"},
		{"I too large", `{"version":1,"space":[8192,16,1024],"procs":[4,4]}`, "limit"},
		{"K too large", `{"version":1,"space":[16,16,2097152],"procs":[4,4]}`, "limit"},
		{"zero procs", `{"version":1,"space":[16,16,1024],"procs":[0,4]}`, "processor"},
		{"too many procs", `{"version":1,"space":[1024,1024,64],"procs":[512,2]}`, "processor"},
		{"work bound", `{"version":1,"space":[16,16,1048576],"procs":[16,16]}`, "tile count"},
		{"bad mode", `{"version":1,"space":[16,16,1024],"procs":[4,4],"mode":"eager"}`, "mode"},
		{"bad machine", `{"version":1,"space":[16,16,1024],"procs":[4,4],"machine":"cray"}`, "machine"},
		{"tenant charset", `{"version":1,"space":[16,16,1024],"procs":[4,4],"tenant":"a b"}`, "tenant"},
		{"tenant too long", `{"version":1,"space":[16,16,1024],"procs":[4,4],"tenant":"` +
			strings.Repeat("x", MaxTenantLen+1) + `"}`, "tenant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest(strings.NewReader(tc.body))
			if err == nil {
				t.Fatalf("decoded %q without error", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestDecodeSizeLimit: a body over MaxBodyBytes fails even if it would
// otherwise be valid JSON, and the decoder never slurps the excess.
func TestDecodeSizeLimit(t *testing.T) {
	pad := strings.Repeat(" ", MaxBodyBytes)
	if _, err := DecodeRequest(strings.NewReader(pad + validJSON())); err == nil {
		t.Fatal("oversized body accepted")
	}
}

// TestModeAndMachineEnums pins the accepted enum values.
func TestModeAndMachineEnums(t *testing.T) {
	base := PlanRequest{Version: 1, Space: []int64{16, 16, 1024}, Procs: []int64{4, 4}}
	for _, mode := range []string{"", "overlapped", "blocking"} {
		q := base
		q.Mode = mode
		if err := q.Validate(); err != nil {
			t.Errorf("mode %q rejected: %v", mode, err)
		}
	}
	for _, machine := range []string{"", "example1", "pentium"} {
		q := base
		q.Machine = machine
		if err := q.Validate(); err != nil {
			t.Errorf("machine %q rejected: %v", machine, err)
		}
	}
}

// TestKeyIgnoresTenant: tenant is accounting metadata, so two requests
// differing only in tenant coalesce; any answer-affecting field splits the
// key.
func TestKeyIgnoresTenant(t *testing.T) {
	a := PlanRequest{Version: 1, Space: []int64{16, 16, 1024}, Procs: []int64{4, 4}, Tenant: "a"}
	b := a
	b.Tenant = "b"
	if a.Key() != b.Key() {
		t.Errorf("tenant split the key: %q != %q", a.Key(), b.Key())
	}
	// Defaults and explicit spellings of the same request share a key.
	c := a
	c.Mode, c.Machine = "overlapped", "pentium"
	if a.Key() != c.Key() {
		t.Errorf("default spelling split the key: %q != %q", a.Key(), c.Key())
	}
	for name, mut := range map[string]func(*PlanRequest){
		"mode":    func(q *PlanRequest) { q.Mode = "blocking" },
		"machine": func(q *PlanRequest) { q.Machine = "example1" },
		"exact":   func(q *PlanRequest) { q.Exact = true },
		"space":   func(q *PlanRequest) { q.Space = []int64{16, 16, 512} },
		"procs":   func(q *PlanRequest) { q.Procs = []int64{2, 8} },
	} {
		d := a
		d.Space = append([]int64(nil), a.Space...)
		d.Procs = append([]int64(nil), a.Procs...)
		mut(&d)
		if a.Key() == d.Key() {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestSweepMatchesTileplan pins the one optimum query's construction (the
// ladder, capability and Exact flag `tileplan -optimum` also runs through
// Sweep) against a hand-built sweep, and its answers against that sweep's.
func TestSweepMatchesTileplan(t *testing.T) {
	q, err := DecodeRequest(strings.NewReader(validJSON()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := q.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	g := model.Grid3D{I: 16, J: 16, K: 1024, PI: 4, PJ: 4}
	wantHeights := experiments.Ladder(4, g.K/4)
	if len(s.Heights) != len(wantHeights) {
		t.Fatalf("heights %v != tileplan ladder %v", s.Heights, wantHeights)
	}
	for i := range wantHeights {
		if s.Heights[i] != wantHeights[i] {
			t.Fatalf("heights %v != tileplan ladder %v", s.Heights, wantHeights)
		}
	}
	if s.Cap != sim.CapDMA || s.Grid != g || s.Exact {
		t.Fatalf("sweep %+v does not match tileplan construction", s)
	}

	// Answer parity against the offline construction, both modes.
	s.Cache = sim.NewCache()
	ref := experiments.Sweep{
		ID: "tileplan", Title: "tileplan -optimum",
		Grid: g, Heights: experiments.Ladder(4, g.K/4),
		Machine: model.PentiumCluster(), Cap: sim.CapDMA,
		Cache: sim.NewCache(),
	}
	for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
		got, err := s.OptimumDetailCtx(context.Background(), mode)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.OptimumDetailCtx(context.Background(), mode)
		if err != nil {
			t.Fatal(err)
		}
		if got.V != want.V || got.T != want.T || got.Tier != want.Tier {
			t.Errorf("%v: served (V=%d t=%g tier=%v) != tileplan (V=%d t=%g tier=%v)",
				mode, got.V, got.T, got.Tier, want.V, want.T, want.Tier)
		}
	}
}

// TestSeedForMatchesGrid: SeedFor reports the same closed-form seed
// tileplan prints.
func TestSeedForMatchesGrid(t *testing.T) {
	g := model.Grid3D{I: 16, J: 16, K: 1024, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	wantOv, _, err := g.OptimalVOverlapAnalytic(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := SeedFor(g, m, sim.Overlapped); got != wantOv {
		t.Errorf("overlapped seed %g != %g", got, wantOv)
	}
	wantBl, _, err := g.OptimalVBlockingAnalytic(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := SeedFor(g, m, sim.Blocking); got != wantBl {
		t.Errorf("blocking seed %g != %g", got, wantBl)
	}
}

// TestResultRoundTrip: EncodeResult/DecodeResult are inverses.
func TestResultRoundTrip(t *testing.T) {
	res := PlanResult{
		Version: 1, Mode: "overlapped", V: 16, G: 256, TSeconds: 0.125,
		Tier: "certified", Probes: 5, SeedV: 14.7,
	}
	var b strings.Builder
	if err := EncodeResult(&b, res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(b.String(), "\n") {
		t.Error("encoded result not newline-terminated")
	}
	got, err := DecodeResult(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Errorf("round trip %+v != %+v", got, res)
	}
}
