package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/runner"
)

// TestMain doubles as the tilenode entry point for the chaos test's child
// processes: when TILENODE_CHILD=1 the binary parses os.Args as tilenode
// flags and runs a real rank instead of the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("TILENODE_CHILD") == "1" {
		if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "tilenode: %v\n", err)
			os.Exit(2)
		}
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "tilenode: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// child builds a tilenode child-process command with the given flags.
func child(ctx context.Context, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TILENODE_CHILD=1")
	return cmd
}

// TestChaosKillAndRestore is the end-to-end crash drill, once per loop
// shape: a 2-rank run over real TCP processes is SIGKILLed on a
// (seeded-)random rank mid-run; the surviving rank must detect the death and
// abort within its failure deadline rather than hang; and a -restore run
// from the checkpoints the dead run left behind must produce a grid
// byte-identical to an uninterrupted baseline.
func TestChaosKillAndRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	for _, shape := range [][]string{
		{"-shape", "2d", "-space2d", "40x4", "-s1", "2", "-ranks", "2", "-mode", "overlapped", "-verify=false"},
		{"-shape", "3d", "-space", "2x2x40", "-procs", "2x1", "-v", "2", "-mode", "overlapped", "-verify=false"},
	} {
		t.Run(shape[1], func(t *testing.T) {
			dir := t.TempDir()
			ckDir := filepath.Join(dir, "ck")
			if err := os.Mkdir(ckDir, 0o755); err != nil {
				t.Fatal(err)
			}
			baseGrid := filepath.Join(dir, "base.bin")
			restoredGrid := filepath.Join(dir, "restored.bin")
			const n = 2
			// 1. Uninterrupted baseline (single process, -spawn).
			out, err := child(ctx, append(shape, "-spawn", "-grid-out", baseGrid)...).CombinedOutput()
			if err != nil {
				t.Fatalf("baseline run: %v\n%s", err, out)
			}

			// 2. Chaos run: one real process per rank, checkpointing, with the
			// failure detectors armed and each tile slowed so the kill lands
			// mid-run deterministically (checkpoint files gate the kill).
			addrs, err := loopbackAddrs(n)
			if err != nil {
				t.Fatal(err)
			}
			victim := rand.New(rand.NewSource(2001)).Intn(n)
			procs := make([]*exec.Cmd, n)
			outs := make([]bytes.Buffer, n)
			for r := 0; r < n; r++ {
				procs[r] = child(ctx, append(shape,
					"-rank", fmt.Sprint(r), "-addrs", strings.Join(addrs, ","),
					"-checkpoint-dir", ckDir, "-checkpoint-every", "2",
					"-tile-delay", "10ms", "-heartbeat", "50ms", "-deadline", "10s",
				)...)
				procs[r].Stdout = &outs[r]
				procs[r].Stderr = &outs[r]
				if err := procs[r].Start(); err != nil {
					t.Fatal(err)
				}
			}

			// Kill the victim once it has provably checkpointed past tile 4 (of
			// 20): early enough that most of the run is still ahead, late enough
			// that a restore has real state to resume from.
			killDeadline := time.Now().Add(time.Minute)
			for {
				tile, _, err := runner.LatestCheckpoint(ckDir, victim)
				if err != nil {
					t.Fatal(err)
				}
				if tile >= 4 {
					break
				}
				if time.Now().After(killDeadline) {
					t.Fatalf("rank %d never checkpointed past tile 4\nrank outputs:\n%s\n%s",
						victim, outs[0].String(), outs[1].String())
				}
				time.Sleep(time.Millisecond)
			}
			if err := procs[victim].Process.Kill(); err != nil {
				t.Fatal(err)
			}

			// 3. Every process must exit promptly: the victim by the kill, the
			// survivors non-zero because the world aborted — no hang.
			var wg sync.WaitGroup
			waitErrs := make([]error, n)
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					waitErrs[r] = procs[r].Wait()
				}(r)
			}
			waited := make(chan struct{})
			go func() { wg.Wait(); close(waited) }()
			select {
			case <-waited:
			case <-time.After(30 * time.Second):
				t.Fatalf("ranks still running 30s after the kill — survivors hung\nrank outputs:\n%s\n%s",
					outs[0].String(), outs[1].String())
			}
			for r := 0; r < n; r++ {
				if r == victim {
					var ee *exec.ExitError
					if !isSignal(waitErrs[r], syscall.SIGKILL, &ee) {
						t.Fatalf("victim rank %d: %v (want SIGKILL)", r, waitErrs[r])
					}
					continue
				}
				if waitErrs[r] == nil {
					t.Fatalf("surviving rank %d exited 0 — it never noticed the crash\n%s", r, outs[r].String())
				}
				if s := outs[r].String(); !strings.Contains(s, "abort") {
					t.Errorf("surviving rank %d's failure does not mention the abort:\n%s", r, s)
				}
			}

			// 4. Restore from the snapshots the dead run left behind; the grid
			// must be byte-identical to the uninterrupted baseline.
			out, err = child(ctx, append(shape,
				"-spawn", "-checkpoint-dir", ckDir, "-restore", "-grid-out", restoredGrid)...).CombinedOutput()
			if err != nil {
				t.Fatalf("restore run: %v\n%s", err, out)
			}
			base, err := os.ReadFile(baseGrid)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := os.ReadFile(restoredGrid)
			if err != nil {
				t.Fatal(err)
			}
			if len(base) == 0 {
				t.Fatal("baseline grid is empty")
			}
			if !bytes.Equal(base, restored) {
				t.Fatalf("restored grid differs from baseline (%d vs %d bytes)", len(restored), len(base))
			}
		})
	}
}

// TestReaderDecidedByRankZero: whether the grid is gathered is rank 0's
// decision alone, because only rank 0's flags name a reader, and it is
// broadcast before the run, because a rank whose result nobody reads only
// times the run (runner.Time, a ring of one tile instead of its box). Two
// real processes run with different flags: rank 0 writing the grid while
// rank 1 does not verify must still gather a grid byte-identical to a
// -spawn run's, and rank 0 not verifying while rank 1 keeps the default
// -verify must skip the gather on both and print the stats line a
// gathering run prints. A rank deciding from its own flags would wait on a
// chunk or a credit its peer never sends; -deadline turns that into a
// failed exit instead of a hang. A -spawn run whose rank 0 has -grid-out
// gathers the grid a verified run writes, and a -verify=false run that
// checkpoints keeps its box and writes its snapshots.
func TestReaderDecidedByRankZero(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	shape := []string{"-shape", "3d", "-space", "2x2x40", "-procs", "2x1", "-v", "2",
		"-mode", "overlapped", "-deadline", "5s"}
	dir := t.TempDir()
	baseGrid := filepath.Join(dir, "base.bin")
	baseOut, err := child(ctx, append(shape, "-spawn", "-verify=false", "-grid-out", baseGrid)...).CombinedOutput()
	if err != nil {
		t.Fatalf("baseline run: %v\n%s", err, baseOut)
	}
	// statsLine is the stats line in out without its wall-clock figure.
	elapsed := regexp.MustCompile(`elapsed=\S+ `)
	statsLine := func(t *testing.T, out []byte) string {
		t.Helper()
		for _, l := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(l, "mode=") {
				return elapsed.ReplaceAllString(l, "elapsed=… ")
			}
		}
		t.Fatalf("no stats line in %q", out)
		return ""
	}
	wantLine := statsLine(t, baseOut)
	sameGrid := func(t *testing.T, path string) {
		t.Helper()
		base, err := os.ReadFile(baseGrid)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(base) == 0 || !bytes.Equal(base, got) {
			t.Fatalf("grid in %s differs from the -spawn run's (%d vs %d bytes)", path, len(got), len(base))
		}
	}
	// pair runs rank 0 and rank 1 as processes with their own extra flags
	// and returns what each printed.
	pair := func(t *testing.T, flags0, flags1 []string) [2][]byte {
		t.Helper()
		addrs, err := loopbackAddrs(2)
		if err != nil {
			t.Fatal(err)
		}
		var procs [2]*exec.Cmd
		var outs [2]bytes.Buffer
		for r, flags := range [][]string{flags0, flags1} {
			args := append(append([]string{"-rank", fmt.Sprint(r), "-addrs", strings.Join(addrs, ",")}, shape...), flags...)
			procs[r] = child(ctx, args...)
			procs[r].Stdout, procs[r].Stderr = &outs[r], &outs[r]
			if err := procs[r].Start(); err != nil {
				t.Fatal(err)
			}
		}
		for r, p := range procs {
			if err := p.Wait(); err != nil {
				t.Errorf("rank %d: %v\n%s", r, err, outs[r].String())
			}
		}
		return [2][]byte{outs[0].Bytes(), outs[1].Bytes()}
	}

	t.Run("grid-out on rank 0 only", func(t *testing.T) {
		gridOut := filepath.Join(dir, "pair.bin")
		pair(t, []string{"-verify=false", "-grid-out", gridOut}, []string{"-verify=false"})
		sameGrid(t, gridOut)
	})
	t.Run("verify on rank 1 only", func(t *testing.T) {
		outs := pair(t, []string{"-verify=false"}, nil)
		if got := statsLine(t, outs[0]); got != wantLine {
			t.Errorf("timed run's stats line %q, a gathering run's %q", got, wantLine)
		}
		if strings.Contains(string(outs[0]), "verification") || len(outs[1]) != 0 {
			t.Errorf("a run without a reader verified or printed on rank 1:\n%s\n%s", outs[0], outs[1])
		}
	})
	t.Run("spawn with grid-out gathers", func(t *testing.T) {
		checked := filepath.Join(dir, "checked.bin")
		out, err := child(ctx, append(shape, "-spawn", "-grid-out", checked)...).CombinedOutput()
		if err != nil || !strings.Contains(string(out), "max |parallel - sequential| = 0\n") {
			t.Fatalf("verified run: %v\n%s", err, out)
		}
		sameGrid(t, checked)
	})
	t.Run("checkpointing keeps the box", func(t *testing.T) {
		ck := t.TempDir()
		out, err := child(ctx, append(shape, "-spawn", "-verify=false", "-checkpoint-dir", ck, "-checkpoint-every", "2")...).CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if got := statsLine(t, out); got != wantLine {
			t.Errorf("checkpointing run's stats line %q, want %q", got, wantLine)
		}
		// 20 tiles a rank, a snapshot after every second but the last.
		for rank := 0; rank < 2; rank++ {
			if next, _, err := runner.LatestCheckpoint(ck, rank); err != nil || next != 18 {
				t.Errorf("rank %d: newest snapshot at tile %d (%v), want 18", rank, next, err)
			}
		}
	})
}

// isSignal reports whether err is an ExitError terminated by sig.
func isSignal(err error, sig syscall.Signal, out **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if !ok {
		return false
	}
	*out = ee
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == sig
}

// TestChild2DSpawn smoke-tests the 2-D shape through the real CLI surface,
// verification included.
func TestChild2DSpawn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, mode := range []string{"blocking", "overlapped"} {
		out, err := child(ctx, "-spawn", "-shape", "2d", "-space2d", "60x6",
			"-s1", "10", "-ranks", "3", "-mode", mode, "-deadline", "30s").CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", mode, err, out)
		}
		if !strings.Contains(string(out), "max |parallel - sequential| = 0") {
			t.Errorf("%s: verification line missing:\n%s", mode, out)
		}
	}
}

// TestChaosSupervised is the self-healing drill the supervisor exists for:
// a 2-rank supervised run has its victim rank SIGKILLed three times, each
// at a later checkpoint frontier, and must still finish without operator
// input — final grid byte-identical to a fault-free baseline — while the
// recovery metrics report every incident.
func TestChaosSupervised(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	if err := os.Mkdir(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	baseGrid := filepath.Join(dir, "base.bin")
	healedGrid := filepath.Join(dir, "healed.bin")
	snap := filepath.Join(dir, "metrics.json")
	shape := []string{
		"-shape", "2d", "-space2d", "40x4", "-s1", "2", "-ranks", "2",
		"-mode", "overlapped", "-verify=false",
	}

	out, err := child(ctx, append(shape, "-spawn", "-grid-out", baseGrid)...).CombinedOutput()
	if err != nil {
		t.Fatalf("baseline run: %v\n%s", err, out)
	}

	out, err = child(ctx, append(shape,
		"-supervise", "-checkpoint-dir", ckDir, "-checkpoint-every", "2",
		"-tile-delay", "10ms", "-heartbeat", "50ms", "-deadline", "10s",
		"-max-restarts", "3", "-restart-backoff", "50ms",
		"-chaos-kills", "3", "-chaos-victim", "1",
		"-grid-out", healedGrid, "-metrics-snapshot", snap,
	)...).CombinedOutput()
	if err != nil {
		t.Fatalf("supervised run did not self-heal: %v\n%s", err, out)
	}

	base, err := os.ReadFile(baseGrid)
	if err != nil {
		t.Fatal(err)
	}
	healed, err := os.ReadFile(healedGrid)
	if err != nil {
		t.Fatalf("healed grid missing (rank 0 of the final epoch writes it): %v", err)
	}
	if len(base) == 0 {
		t.Fatal("baseline grid is empty")
	}
	if !bytes.Equal(base, healed) {
		t.Fatalf("self-healed grid differs from fault-free baseline (%d vs %d bytes)", len(healed), len(base))
	}

	// The obs snapshot must account every incident with its latencies.
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Recovery *struct {
			Incidents []struct {
				Epoch       uint32 `json:"epoch"`
				Victim      int    `json:"victim"`
				DetectNs    int64  `json:"detect_ns"`
				RestoreNs   int64  `json:"restore_ns"`
				MTTRNs      int64  `json:"mttr_ns"`
				WastedTiles int64  `json:"wasted_tiles"`
			} `json:"incidents"`
			RestartsPerRank []int64 `json:"restarts_per_rank"`
			TotalRestarts   int64   `json:"total_restarts"`
			WastedFraction  float64 `json:"wasted_fraction"`
			Failure         string  `json:"failure"`
		} `json:"recovery"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("metrics snapshot: %v\n%s", err, raw)
	}
	rec := dump.Recovery
	if rec == nil {
		t.Fatalf("metrics snapshot has no recovery section:\n%s", raw)
	}
	if len(rec.Incidents) != 3 || rec.TotalRestarts != 3 {
		t.Fatalf("want 3 incidents / 3 restarts, got %d / %d\n%s", len(rec.Incidents), rec.TotalRestarts, raw)
	}
	if rec.RestartsPerRank[1] != 3 || rec.RestartsPerRank[0] != 0 {
		t.Errorf("restarts per rank %v, want all 3 charged to the victim", rec.RestartsPerRank)
	}
	if rec.Failure != "" {
		t.Errorf("healed run recorded a terminal failure: %q", rec.Failure)
	}
	for i, inc := range rec.Incidents {
		if inc.Victim != 1 {
			t.Errorf("incident %d blamed rank %d, want 1", i, inc.Victim)
		}
		if inc.Epoch != uint32(i+1) {
			t.Errorf("incident %d at epoch %d, want %d", i, inc.Epoch, i+1)
		}
		if inc.DetectNs <= 0 || inc.RestoreNs <= 0 || inc.MTTRNs < inc.RestoreNs {
			t.Errorf("incident %d latencies implausible: %+v", i, inc)
		}
	}
}

// TestChaosSupervisedBudgetExhausted: with a restart budget below the kill
// count, the supervised run must converge to a typed world-level failure
// (reported on stderr and in the recovery metrics) instead of looping.
func TestChaosSupervisedBudgetExhausted(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	dir := t.TempDir()
	ckDir := filepath.Join(dir, "ck")
	if err := os.Mkdir(ckDir, 0o755); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "metrics.json")

	out, err := child(ctx,
		"-shape", "2d", "-space2d", "40x4", "-s1", "2", "-ranks", "2",
		"-mode", "overlapped", "-verify=false",
		"-supervise", "-checkpoint-dir", ckDir, "-checkpoint-every", "2",
		"-tile-delay", "10ms", "-heartbeat", "50ms", "-deadline", "10s",
		"-max-restarts", "1", "-restart-backoff", "20ms",
		"-chaos-kills", "2", "-chaos-victim", "1",
		"-metrics-snapshot", snap,
	).CombinedOutput()
	if err == nil {
		t.Fatalf("run exceeded its restart budget but exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "restart budget") {
		t.Fatalf("failure does not name the exhausted restart budget:\n%s", out)
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Recovery *struct {
			Failure string `json:"failure"`
		} `json:"recovery"`
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Recovery == nil || !strings.Contains(dump.Recovery.Failure, "restart budget") {
		t.Errorf("recovery metrics do not record the typed failure:\n%s", raw)
	}
}
