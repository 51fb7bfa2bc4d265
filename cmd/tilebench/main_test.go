package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestMain doubles as the tilebench entry point for the golden tests' child
// processes: when TILEBENCH_CHILD=1 the binary parses os.Args as tilebench
// flags and runs the named experiments instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("TILEBENCH_CHILD") == "1" {
		if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "tilebench: %v\n", err)
			os.Exit(2)
		}
		os.Exit(runAll(flag.Args()))
	}
	os.Exit(m.Run())
}

// TestGolden pins the byte-exact stdout of every -quick experiment. The
// simulator is deterministic and every sweep assembles its rows in input
// order, so any diff is a behaviour change: a refactor must leave these
// files untouched, and an intended change regenerates them with -update.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"fig9", []string{"-quick", "fig9"}},
		{"fig10", []string{"-quick", "fig10"}},
		{"fig11", []string{"-quick", "fig11"}},
		{"fig12", []string{"-quick", "fig12"}},
		{"ex1", []string{"-quick", "ex1"}},
		{"ex3", []string{"-quick", "ex3"}},
		{"ablation-cap", []string{"-quick", "ablation-cap"}},
		{"ablation-map", []string{"-quick", "ablation-map"}},
		{"ablation-net", []string{"-quick", "ablation-net"}},
		{"ablation-straggler", []string{"-quick", "ablation-straggler"}},
		{"fault-sweep-deadline", []string{"-quick", "-deadline", "fault-sweep"}},
		{"recovery-sweep", []string{"-quick", "recovery-sweep"}},
		{"scale-sweep", []string{"-quick", "scale-sweep"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "TILEBENCH_CHILD=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("tilebench %v: %v\n%s", tc.args, err, stderr.Bytes())
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("tilebench %v output differs from %s:\n--- got ---\n%s--- want ---\n%s", tc.args, path, got, want)
			}
		})
	}
}
