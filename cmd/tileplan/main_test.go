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

// TestMain doubles as the tileplan entry point for the golden tests' child
// processes: when TILEPLAN_CHILD=1 the binary parses os.Args as tileplan
// flags and plans instead of running the test suite.
func TestMain(m *testing.M) {
	if os.Getenv("TILEPLAN_CHILD") == "1" {
		if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "tileplan: %v\n", err)
			os.Exit(2)
		}
		if err := run(); err != nil {
			fmt.Fprintf(os.Stderr, "tileplan: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins the byte-exact stdout of each tileplan mode. The -optimum
// line also pins the number of DES evaluations each query cost, so it fails
// if the cache's Evals counter stops being exact. Regenerate an intended
// change with -update.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"simulate", []string{"-simulate"}},
		{"emit", []string{"-emit"}},
		{"gantt", []string{"-simulate", "-gantt", "-space", "40x40", "-tile", "10x10"}},
		{"optimum", []string{"-optimum", "-space", "16x16x16384"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "TILEPLAN_CHILD=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("tileplan %v: %v\n%s", tc.args, err, stderr.Bytes())
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
				t.Errorf("tileplan %v output differs from %s:\n--- got ---\n%s--- want ---\n%s", tc.args, path, got, want)
			}
		})
	}
}

// TestBadTileSides: an explicit -tile of the wrong length or with a
// non-positive side fails with a message naming the sides, rather than
// panicking, reporting the tiling illegal or silently growing the side.
func TestBadTileSides(t *testing.T) {
	for tile, want := range map[string]string{
		"4x4x4": "tileplan: core: tile sides (4, 4, 4) have 3 dimensions, the space has 2\n",
		"4":     "tileplan: core: tile sides (4) have 1 dimensions, the space has 2\n",
		"0x4":   "tileplan: core: tile sides (0, 4): side 0 in dimension 0 is not positive\n",
	} {
		cmd := exec.Command(os.Args[0], "-space", "16x16", "-deps", "1,0;0,1", "-tile", tile)
		cmd.Env = append(os.Environ(), "TILEPLAN_CHILD=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
			t.Errorf("-tile %s: exit %v, want status 1", tile, err)
		}
		if len(out) != 0 || stderr.String() != want {
			t.Errorf("-tile %s: stdout %q, stderr %q; want no stdout and stderr %q", tile, out, stderr.String(), want)
		}
	}
}

// TestLargeTileVolumes: a tile of 2048×1024 points plans and prints its
// exact per-direction transfer volumes, which tiling computes in closed
// form whatever the tile's volume.
func TestLargeTileVolumes(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-space", "2048x2048", "-tile", "2048x1024")
	cmd.Env = append(os.Environ(), "TILEPLAN_CHILD=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("exit %v, stderr %q", err, stderr.String())
	}
	want := "exact per-direction tile transfer volumes:\n" +
		"  (0, 1) : 2048 points\n" +
		"  (1, 0) : 1024 points\n" +
		"  (1, 1) : 1 points\n"
	if !bytes.Contains(out, []byte(want)) {
		t.Errorf("stdout\n%s\nlacks\n%s", out, want)
	}
}
