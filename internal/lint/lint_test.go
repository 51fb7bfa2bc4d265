package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata expect.txt files")

// fixtures maps each analyzer to its positive (bad) and negative (good)
// testdata packages, and the in-module import path the fixture is
// type-checked under (path-scoped analyzers key off it).
var fixtures = []struct {
	analyzer *Analyzer
	dir      string // under testdata/
	spoof    string // import path the fixture impersonates
	findings bool   // whether the analyzer must fire
}{
	{AnalyzerUnwaitedHandle, "unwaitedhandle/bad", "repro/internal/fixture", true},
	{AnalyzerUnwaitedHandle, "unwaitedhandle/good", "repro/internal/fixture", false},
	{AnalyzerDeterminism, "determinism/bad", "repro/internal/sim", true},
	{AnalyzerDeterminism, "determinism/good", "repro/internal/sim", false},
	// Files excluded by a //go:build line or a _GOOS suffix are not loaded.
	{AnalyzerDeterminism, "determinism/constrained", "repro/internal/sim", false},
	{AnalyzerReservedTag, "reservedtag/bad", "repro/internal/runner", true},
	{AnalyzerReservedTag, "reservedtag/good", "repro/internal/runner", false},
	{AnalyzerBlockingDeadline, "blockingdeadline/bad", "repro/cmd/fixture", true},
	{AnalyzerBlockingDeadline, "blockingdeadline/good", "repro/cmd/fixture", false},
	{AnalyzerBlockingDeadline, "blockingdeadline/serve-bad", "repro/cmd/tileserve", true},
	{AnalyzerBlockingDeadline, "blockingdeadline/serve-good", "repro/cmd/tileserve", false},
	{AnalyzerBoundedRetry, "boundedretry/bad", "repro/cmd/fixture", true},
	{AnalyzerBoundedRetry, "boundedretry/good", "repro/cmd/fixture", false},
}

// runFixture type-checks one testdata package under its spoofed path and
// runs a single analyzer (suppression directives apply; the unused-
// directive check does not, since the suite is partial).
func runFixture(t *testing.T, dir, spoof string, a *Analyzer) []Diagnostic {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ld.loadDir(abs, spoof)
	if err != nil {
		t.Fatal(err)
	}
	return Relativize(abs, Run([]*Package{pkg}, []*Analyzer{a}))
}

// TestFixtures checks every analyzer against its golden diagnostics: the
// bad fixture must reproduce expect.txt exactly, the good fixture must be
// silent. Regenerate goldens with: go test ./internal/lint -update
func TestFixtures(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			diags := runFixture(t, fx.dir, fx.spoof, fx.analyzer)
			if fx.findings && len(diags) == 0 {
				t.Fatalf("analyzer %s reported nothing on its positive fixture", fx.analyzer.Name)
			}
			var lines []string
			for _, d := range diags {
				lines = append(lines, d.String())
			}
			got := strings.Join(lines, "\n")
			if got != "" {
				got += "\n"
			}
			expectPath := filepath.Join("testdata", fx.dir, "expect.txt")
			if *update {
				if got == "" {
					os.Remove(expectPath)
					return
				}
				if err := os.WriteFile(expectPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want := ""
			if data, err := os.ReadFile(expectPath); err == nil {
				want = string(data)
			} else if fx.findings {
				t.Fatalf("missing golden %s (run with -update)", expectPath)
			}
			if got != want {
				t.Errorf("diagnostics mismatch for %s\n--- got ---\n%s--- want ---\n%s", fx.dir, got, want)
			}
		})
	}
}

// TestModuleClean is the in-process gate: the full suite over the whole
// module at HEAD must report zero diagnostics, so a contract violation
// anywhere in the tree fails plain `go test ./...` (tier-1), not just
// `make lint`.
func TestModuleClean(t *testing.T) {
	ld, pkgs := loadModule(t)
	if len(pkgs) < 10 {
		t.Fatalf("module load found only %d packages; loader is skipping code", len(pkgs))
	}
	for _, d := range Relativize(ld.ModuleRoot, Run(pkgs, Analyzers())) {
		t.Errorf("%s", d)
	}
}

// TestSuppressionNeedsReason: a directive without a justification is
// itself a finding, so the exception list cannot silently grow.
func TestSuppressionNeedsReason(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "time"

func stamp() time.Time {
	//tilevet:allow determinism
	return time.Now()
}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ld.loadDir(dir, "repro/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, []*Analyzer{AnalyzerDeterminism})
	var reasons, clock int
	for _, d := range diags {
		switch {
		case d.Analyzer == "tilevet" && strings.Contains(d.Message, "justification"):
			reasons++
		case d.Analyzer == "determinism":
			clock++
		}
	}
	if reasons != 1 {
		t.Errorf("want 1 missing-justification finding, got %d (%v)", reasons, diags)
	}
	if clock != 0 {
		t.Errorf("reasonless directive should still suppress while being reported itself; got %d clock findings", clock)
	}
}

// TestUnusedSuppression: with the full suite running, a directive that
// suppresses nothing is reported as stale.
func TestUnusedSuppression(t *testing.T) {
	dir := t.TempDir()
	src := `package p

//tilevet:allow determinism -- stale: nothing here trips the analyzer
var x = 1
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ld.loadDir(dir, "repro/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run([]*Package{pkg}, Analyzers())
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "matches no finding") {
		t.Errorf("want exactly one stale-directive finding, got %v", diags)
	}
}
