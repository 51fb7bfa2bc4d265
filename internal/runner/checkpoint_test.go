package runner

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mp"
	"repro/internal/stencil"
)

// gridsByteIdentical compares two gathered grids bit-for-bit (the restart
// guarantee is exact, not within-epsilon).
func gridsByteIdentical(t *testing.T, got, want *stencil.Grid) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("grid sizes differ: %d vs %d", len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("grids differ at linear index %d: %x vs %x",
				i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

func TestCheckpointFileNaming(t *testing.T) {
	path := CheckpointFile("d", 3, 12)
	if path != filepath.Join("d", "ck-r0003-t00000012.bin") {
		t.Fatalf("unexpected checkpoint path %q", path)
	}
}

func TestLatestCheckpointEmpty(t *testing.T) {
	tile, path, err := LatestCheckpoint(t.TempDir(), 0)
	if err != nil || tile != 0 || path != "" {
		t.Fatalf("empty dir: tile=%d path=%q err=%v", tile, path, err)
	}
	// A directory that does not exist yet is also "no checkpoints", not an
	// error — the launcher polls before the ranks create anything.
	tile, _, err = LatestCheckpoint(filepath.Join(t.TempDir(), "nope"), 0)
	if err != nil || tile != 0 {
		t.Fatalf("missing dir: tile=%d err=%v", tile, err)
	}
}

// shapes are the two front doors as the shape-neutral tests see them: the
// problem each base configuration reduces to, on four ranks, with a boundary
// that differs at every ghost point.
var shapes = []struct {
	name string
	base func(Mode) problem
}{
	{"2d", func(m Mode) problem { return withBoundary(base2D(m).problem(shapeRanks)) }},
	{"3d", func(m Mode) problem { return withBoundary(baseConfig(m).problem()) }},
}

const shapeRanks = 4

func withBoundary(p problem) problem {
	p.boundary = positionBoundary
	return p
}

// runProblem executes p on shapeRanks in-process ranks, each communicator
// passed through wrap, and returns rank 0's gathered grid and per-rank stats.
func runProblem(t *testing.T, p problem, wrap func(mp.Comm) mp.Comm) (*stencil.Grid, []Stats) {
	t.Helper()
	if err := p.validate(shapeRanks); err != nil {
		t.Fatal(err)
	}
	stats := make([]Stats, shapeRanks)
	var grid *stencil.Grid
	var mu sync.Mutex
	err := mp.Launch(shapeRanks, func(c mp.Comm) error {
		if wrap != nil {
			c = wrap(c)
		}
		l, st, err := p.run(c, p.space[2])
		if err != nil {
			return err
		}
		g, err := p.gather(c, l)
		mu.Lock()
		defer mu.Unlock()
		stats[c.Rank()] = st
		if c.Rank() == 0 {
			grid = g
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return grid, stats
}

// checkpointed is p snapshotting every second tile into dir; the run that
// leaves the snapshots behind must itself match ref.
func checkpointed(t *testing.T, p problem, dir string, ref *stencil.Grid) problem {
	t.Helper()
	p.checkpoint = CheckpointConfig{Dir: dir, Every: 2}
	grid, stats := runProblem(t, p, nil)
	gridsByteIdentical(t, grid, ref)
	for rank, st := range stats {
		if st.Checkpoints == 0 || st.CheckpointBytes == 0 {
			t.Fatalf("rank %d wrote no checkpoints: %+v", rank, st)
		}
		if tile, _, err := LatestCheckpoint(dir, rank); err != nil || tile == 0 {
			t.Fatalf("rank %d has no snapshot on disk (tile=%d err=%v)", rank, tile, err)
		}
	}
	return p
}

// flipLastByte corrupts one payload byte of the snapshot at path.
func flipLastByte(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRestoreByteIdentical(t *testing.T) {
	for _, mode := range []Mode{Blocking, Overlapped} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, sh := range shapes {
				t.Run(sh.name, func(t *testing.T) {
					ref, _ := runProblem(t, sh.base(mode), nil)
					// A checkpointing run leaves snapshots behind...
					p := checkpointed(t, sh.base(mode), t.TempDir(), ref)
					// ...and a restore run resumes from the newest boundary,
					// recomputing only the tail, yet the result is bit-identical.
					p.checkpoint.Restore = true
					restored, rstats := runProblem(t, p, nil)
					gridsByteIdentical(t, restored, ref)
					for rank, st := range rstats {
						if int64(st.Tiles) >= p.tiles() {
							t.Errorf("rank %d recomputed all %d tiles — restore did not resume", rank, st.Tiles)
						}
					}
				})
			}
		})
	}
}

// TestCheckpointCorruptGenerationFallsBack: a bit-flipped newest snapshot
// must be rejected by the CRC and restore must fall back to the previous
// generation — still bit-identical.
func TestCheckpointCorruptGenerationFallsBack(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ref, _ := runProblem(t, sh.base(Blocking), nil)
			dir := t.TempDir()
			p := checkpointed(t, sh.base(Blocking), dir, ref)
			// Flip one payload byte in rank 1's newest snapshot.
			tile, path, err := LatestCheckpoint(dir, 1)
			if err != nil || tile == 0 {
				t.Fatalf("no snapshot to corrupt: tile=%d err=%v", tile, err)
			}
			flipLastByte(t, path)

			p.checkpoint.Restore = true
			restored, stats := runProblem(t, p, nil)
			gridsByteIdentical(t, restored, ref)
			// Every rank resumed from the boundary before the corrupt one.
			for rank, st := range stats {
				if want := p.tiles() - (tile - p.checkpoint.Every); int64(st.Tiles) != want {
					t.Errorf("rank %d recomputed %d tiles, want %d (fallback generation)", rank, st.Tiles, want)
				}
			}
		})
	}
}

// TestCheckpointVersion1Rejected: a snapshot stamped with the retired 2-D-only
// format version is named as such by the loader, and a restore that finds
// nothing else takes the fresh-start fallback like any other unusable file.
func TestCheckpointVersion1Rejected(t *testing.T) {
	ref, _ := runProblem(t, shapes[0].base(Blocking), nil)
	dir := t.TempDir()
	p := checkpointed(t, shapes[0].base(Blocking), dir, ref)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.BigEndian.PutUint32(buf[4:8], 1) // outside the CRC'd range: only the version is wrong
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r := &run{p: p, l: &Local{}}
	if _, err := r.loadCheckpoint(filepath.Join(dir, ents[0].Name())); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Errorf("version-1 file: %v, want an unsupported-version error", err)
	}
	p.checkpoint.Restore = true
	restored, stats := runProblem(t, p, nil)
	gridsByteIdentical(t, restored, ref)
	for rank, st := range stats {
		if st.Restore.Reason != RestoreFreshAllCorrupt || int64(st.Tiles) != p.tiles() {
			t.Errorf("rank %d: restore %+v after %d tiles, want a full fresh-all-corrupt run", rank, st.Restore, st.Tiles)
		}
	}
}

// TestCheckpointAllCorruptMeansFreshStart: when one rank has nothing valid
// at all, the AllReduce(min) forces a clean fresh start for everyone.
func TestCheckpointAllCorruptMeansFreshStart(t *testing.T) {
	const n = 2
	ref := runAll2DGrid(t, n, base2D(Overlapped))
	dir := t.TempDir()
	cfg := base2D(Overlapped)
	cfg.Checkpoint = CheckpointConfig{Dir: dir, Every: 2}
	if grid, _ := runAll2D(t, n, cfg); grid == nil {
		t.Fatal("no grid")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ck-r0001-") {
			if err := os.Truncate(filepath.Join(dir, e.Name()), 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg.Checkpoint.Restore = true
	restored, stats := runAll2D(t, n, cfg)
	gridsByteIdentical(t, restored, ref)
	full := tiles2D(base2D(Overlapped))
	for rank, st := range stats {
		if int64(st.Tiles) != full {
			t.Errorf("rank %d computed %d tiles, want full %d (fresh start)", rank, st.Tiles, full)
		}
	}
}

// TestCheckpointGeometryMismatchRejected: a snapshot from a different run
// shape must not load.
func TestCheckpointGeometryMismatchRejected(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ref, _ := runProblem(t, sh.base(Blocking), nil)
			other := checkpointed(t, sh.base(Blocking), t.TempDir(), ref)
			other.v /= 2 // different tiling: snapshots are incompatible
			other.checkpoint.Restore = true
			restored, stats := runProblem(t, other, nil)
			gridsByteIdentical(t, restored, ref)
			for rank, st := range stats {
				if int64(st.Tiles) != other.tiles() || st.Restore.Reason != RestoreFreshAllCorrupt {
					t.Errorf("rank %d resumed from an incompatible snapshot (%d tiles, %+v)", rank, st.Tiles, st.Restore)
				}
			}
		})
	}
}

func TestCheckpointConfigValidate(t *testing.T) {
	cfg := base2D(Blocking)
	cfg.Checkpoint = CheckpointConfig{Every: 2} // no dir
	if cfg.Validate(2) == nil {
		t.Error("checkpoint interval without directory accepted")
	}
	cfg.Checkpoint = CheckpointConfig{Restore: true}
	if cfg.Validate(2) == nil {
		t.Error("restore without directory accepted")
	}
	cfg.Checkpoint = CheckpointConfig{Dir: "d", Every: -1}
	if cfg.Validate(2) == nil {
		t.Error("negative interval accepted")
	}
}

// TestRunnerAbortsWorldOnError: a rank failing mid-run poisons the world so
// its peers unwind with ErrAborted instead of waiting forever. The failure
// is injected by giving one rank a deadline-bearing comm and no partner
// traffic is NOT possible in lockstep runs, so instead use a faulty config:
// rank 1 runs with a mismatched tag space via a wrapper that fails Send.
func TestRunnerAbortsWorldOnError(t *testing.T) {
	const n = 3
	cfg := base2D(Blocking)
	err := mp.Launch(n, func(c mp.Comm) error {
		if c.Rank() == 1 {
			c = failingComm{Comm: c}
		}
		_, _, err := Run2D(c, cfg)
		return err
	})
	if err == nil {
		t.Fatal("run with failing rank succeeded")
	}
	// The launcher reports the first failing rank; whichever it is, the
	// error chain must be either the injected failure or the abort.
	if !strings.Contains(err.Error(), "injected send failure") &&
		!strings.Contains(err.Error(), "aborted") {
		t.Fatalf("unexpected failure chain: %v", err)
	}
}

// TestPartialStatsTravelWithError: when the tile loop fails, either front
// door returns how far the attempt got alongside the error. Rank 0 computes
// its first tile and fails the send that follows.
func TestPartialStatsTravelWithError(t *testing.T) {
	for name, run := range map[string]func(mp.Comm) (Stats, error){
		"3d": func(c mp.Comm) (Stats, error) { _, st, err := Run(c, baseConfig(Blocking)); return st, err },
		"2d": func(c mp.Comm) (Stats, error) { _, st, err := Run2D(c, base2D(Blocking)); return st, err },
	} {
		var got Stats
		err := mp.Launch(shapeRanks, func(c mp.Comm) error {
			if c.Rank() != 0 {
				_, err := run(c)
				return err
			}
			st, err := run(failingComm{Comm: c})
			got = st // Launch's wait orders this write before the read below
			return err
		})
		if err == nil {
			t.Fatalf("%s: run with a failing rank succeeded", name)
		}
		if got.Tiles != 1 || got.MsgsSent != 0 {
			t.Errorf("%s: failed attempt reported %+v, want the one tile computed before the failed send", name, got)
		}
	}
}

type failingComm struct{ mp.Comm }

type errInjected struct{}

func (errInjected) Error() string { return "injected send failure" }

func (f failingComm) Send(dst, tag int, data []byte) error {
	return errInjected{}
}

func (f failingComm) Isend(dst, tag int, data []byte) (mp.Request, error) {
	return nil, errInjected{}
}

// TestCheckpointAllGenerationsCorruptTypedReason: when EVERY generation of
// EVERY rank is corrupt, restore must fall back to a from-scratch run with
// the typed RestoreFreshAllCorrupt reason — not an error — and still
// produce the byte-identical grid.
func TestCheckpointAllGenerationsCorruptTypedReason(t *testing.T) {
	const n = 2
	ref := runAll2DGrid(t, n, base2D(Blocking))
	dir := t.TempDir()
	cfg := base2D(Blocking)
	cfg.Checkpoint = CheckpointConfig{Dir: dir, Every: 2}
	if grid, _ := runAll2D(t, n, cfg); grid == nil {
		t.Fatal("no grid")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "ck-") && strings.HasSuffix(e.Name(), ".bin") {
			if err := os.Truncate(filepath.Join(dir, e.Name()), 20); err != nil {
				t.Fatal(err)
			}
			corrupted++
		}
	}
	if corrupted == 0 {
		t.Fatal("no snapshots to corrupt")
	}
	cfg.Checkpoint.Restore = true
	restored, stats := runAll2D(t, n, cfg)
	gridsByteIdentical(t, restored, ref)
	full := tiles2D(base2D(Blocking))
	for rank, st := range stats {
		if int64(st.Tiles) != full {
			t.Errorf("rank %d computed %d tiles, want full %d (fresh start)", rank, st.Tiles, full)
		}
		ri := st.Restore
		if !ri.Requested || ri.Reason != RestoreFreshAllCorrupt || ri.StartTile != 0 {
			t.Errorf("rank %d restore info = %+v, want requested fresh-all-corrupt at tile 0", rank, ri)
		}
	}
}

// TestCheckpointRestoreReasonsAndWaste: the typed outcome and the provable
// wasted-tile count across the three interesting shapes — a clean resume,
// a rank rolled back past a corrupt newest generation, and a peer-forced
// fresh start.
func TestCheckpointRestoreReasonsAndWaste(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ref, _ := runProblem(t, sh.base(Blocking), nil)
			dir := t.TempDir()
			p := checkpointed(t, sh.base(Blocking), dir, ref)
			tile, path, err := LatestCheckpoint(dir, 1)
			if err != nil || tile == 0 {
				t.Fatalf("no snapshot: tile=%d err=%v", tile, err)
			}

			// Clean resume: everyone restarts at the newest boundary, and the
			// recomputation is exactly what the snapshots prove was already
			// done — nothing, since every rank restarts at its own newest
			// generation.
			p.checkpoint.Restore = true
			_, stats := runProblem(t, p, nil)
			for rank, st := range stats {
				ri := st.Restore
				if ri.Reason != RestoreResumed || ri.StartTile != tile || ri.WastedTiles != 0 {
					t.Errorf("rank %d clean resume info = %+v, want resumed at %d with 0 wasted", rank, ri, tile)
				}
			}

			// Corrupt rank 1's newest generation: the world rolls back one
			// boundary, so every OTHER rank provably recomputes Every tiles.
			flipLastByte(t, path)
			_, stats = runProblem(t, p, nil)
			for rank, st := range stats {
				ri := st.Restore
				wantWaste := p.checkpoint.Every
				if rank == 1 {
					wantWaste = 0 // its own newest valid IS the agreed boundary
				}
				if ri.Reason != RestoreResumed || ri.StartTile != tile-p.checkpoint.Every || ri.WastedTiles != wantWaste {
					t.Errorf("rank %d rollback info = %+v, want resumed at %d with %d wasted",
						rank, ri, tile-p.checkpoint.Every, wantWaste)
				}
			}

			// Wipe rank 2 entirely: a peer with nothing forces tile 0 on
			// everyone; survivors waste everything their snapshots had proven.
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if strings.HasPrefix(e.Name(), "ck-r0002-") {
					if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
						t.Fatal(err)
					}
				}
			}
			// (The rollback run above re-checkpointed, so every surviving
			// rank's newest valid generation is the full boundary `tile`
			// again.) The survivors loaded that snapshot before the agreement
			// and had it zeroed after: the grid is right only if the boundary
			// ghosts are filled after the restore decision.
			grid, stats := runProblem(t, p, nil)
			gridsByteIdentical(t, grid, ref)
			for rank, st := range stats {
				ri := st.Restore
				switch rank {
				case 2:
					if ri.Reason != RestoreFreshNoSnapshot || ri.WastedTiles != 0 {
						t.Errorf("rank 2 info = %+v, want fresh-no-snapshot", ri)
					}
				default:
					if ri.Reason != RestoreFreshPeerBehind || ri.WastedTiles != tile {
						t.Errorf("rank %d info = %+v, want fresh-peer-behind wasting %d", rank, ri, tile)
					}
				}
				if ri.StartTile != 0 {
					t.Errorf("rank %d start tile %d, want 0", rank, ri.StartTile)
				}
			}
		})
	}
}

// TestCheckpointRestoreUnderFaultPlan: a fault plan active at restore time
// (injected delivery delays riding the restore AllReduce and the resumed
// tile traffic) must not break the agreement or the bit-exactness.
func TestCheckpointRestoreUnderFaultPlan(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			ref, _ := runProblem(t, sh.base(Overlapped), nil)
			p := checkpointed(t, sh.base(Overlapped), t.TempDir(), ref)
			p.checkpoint.Restore = true
			grid, stats := runProblem(t, p, func(c mp.Comm) mp.Comm {
				return &delayComm{Comm: c, seed: 29, prob: 0.4, max: time.Millisecond}
			})
			gridsByteIdentical(t, grid, ref)
			for rank, st := range stats {
				if st.Restore.Reason != RestoreResumed {
					t.Errorf("rank %d under faults: restore reason %v, want resumed", rank, st.Restore.Reason)
				}
			}
		})
	}
}

// TestCheckpointOrphanTempCleanup: stale .tmp files left by a crash
// mid-write are removed at the next run's start, and the cleanup must not
// touch finished snapshots or other ranks' temps.
func TestCheckpointOrphanTempCleanup(t *testing.T) {
	const n = 2
	dir := t.TempDir()
	orphan0 := filepath.Join(dir, "ck-r0000-t00000099.bin.tmp")
	orphan9 := filepath.Join(dir, "ck-r0009-t00000004.bin.tmp") // rank outside this world
	for _, p := range []string{orphan0, orphan9} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := base2D(Blocking)
	cfg.Checkpoint = CheckpointConfig{Dir: dir, Every: 2}
	if grid, _ := runAll2D(t, n, cfg); grid == nil {
		t.Fatal("no grid")
	}
	if _, err := os.Stat(orphan0); !os.IsNotExist(err) {
		t.Errorf("rank 0's orphan temp survived the run (err=%v)", err)
	}
	if _, err := os.Stat(orphan9); err != nil {
		t.Errorf("another rank's temp was removed: %v", err)
	}
	if tile, _, err := LatestCheckpoint(dir, 0); err != nil || tile == 0 {
		t.Errorf("finished snapshots missing after cleanup: tile=%d err=%v", tile, err)
	}
}
