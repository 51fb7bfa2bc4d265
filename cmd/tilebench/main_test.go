package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
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

// TestUsageMatchesDoc: the package comment and -h list the same
// subcommands.
func TestUsageMatchesDoc(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	if doc := f.Doc.Text(); !strings.Contains(doc, " "+subcommands+"\n") {
		t.Errorf("package comment does not list the subcommands %q:\n%s", subcommands, doc)
	}
}

// TestInterruptStops: a full-size fig12 run, repeated so it outlasts the
// signal by far, gets SIGINT as soon as its -cpuprofile file appears —
// runAll creates that file right after it installs the interrupt handler,
// so the signal lands shortly after start and is surely caught. The run
// must stop within one DES evaluation: exit non-zero with the context
// error on stderr, well before the uninterrupted runs would have finished.
func TestInterruptStops(t *testing.T) {
	child := func(args ...string) *exec.Cmd {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "TILEBENCH_CHILD=1")
		return cmd
	}
	start := time.Now()
	if out, err := child("fig12").CombinedOutput(); err != nil {
		t.Fatalf("uninterrupted fig12: %v\n%s", err, out)
	}
	one := time.Since(start)

	const repeats = 40 // keeps stopping the CPU profile (~0.2 s) far inside the bound
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	args := []string{"-cpuprofile", prof}
	for i := 0; i < repeats; i++ {
		args = append(args, "fig12")
	}
	cmd := child(args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start = time.Now()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	full := repeats * one
	for _, err := os.Stat(prof); err != nil; _, err = os.Stat(prof) {
		if time.Since(start) > full {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no -cpuprofile file after %v: %v\n%s", full, err, stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	took := time.Since(start)
	if err == nil {
		t.Fatal("interrupted tilebench exited 0")
	}
	if !strings.Contains(stderr.String(), "context canceled") {
		t.Errorf("stderr lacks the context error (exit: %v):\n%s", err, stderr.String())
	}
	if took > full/4 {
		t.Errorf("interrupted run took %v; %d uninterrupted runs take about %v", took, repeats, full)
	}
}
