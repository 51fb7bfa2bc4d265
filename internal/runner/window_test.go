package runner

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/stencil"
)

// windowShapes are the two loop shapes with a k extent that four tile
// heights cut differently: V = 1 (a ring of minRing slots, lapped more than
// twice), a ragged V whose ring of the first multiple of V past minRing
// laps more than twice before a short last tile, a V past minRing whose
// ring is one tile (w = V < K, every tile a lap of its own), and V = K (no
// ring at all).
var windowShapes = []struct {
	name   string
	ranks  int
	vs     []int64
	kernel stencil.Kernel
	// config is the shape's problem at tile height v and its timed front
	// door.
	config func(v int64, mode Mode, kernel stencil.Kernel) (problem, func(mp.Comm) (Stats, error))
}{
	{"3d", 4, []int64{1, 7, 200, 600}, stencil.Sqrt3D{}, func(v int64, mode Mode, kernel stencil.Kernel) (problem, func(mp.Comm) (Stats, error)) {
		cfg := Config{Grid: model.Grid3D{I: 6, J: 4, K: 600, PI: 2, PJ: 2}, V: v, Kernel: kernel, Boundary: positionBoundary, Mode: mode}
		return cfg.problem(), func(c mp.Comm) (Stats, error) { return Time(c, cfg) }
	}},
	{"2d", 3, []int64{1, 9, 300, 700}, stencil.Sum2D{}, func(v int64, mode Mode, kernel stencil.Kernel) (problem, func(mp.Comm) (Stats, error)) {
		cfg := Config2D{I1: 700, I2: 7, S1: v, Kernel: kernel, Boundary: positionBoundary, Mode: mode}
		return cfg.problem(3), func(c mp.Comm) (Stats, error) { return Time2D(c, cfg) }
	}},
}

// TestWindowMatchesWholeBox: a timed run computes into a ring of whole
// tiles per k-row, a kept one into the whole column; the executor is the
// same. Over both shapes and modes, V ∈ {1, ragged, one-tile ring, K}, the block and the
// per-point path, eager and rendezvous worlds (and one TCP case), with a
// boundary that differs at every ghost point, the timed run reports the
// same Stats but Elapsed, and its ring holds, bit for bit, the values the
// whole box has at the last w k of every row. A third run mixes the two
// front doors across ranks: they exchange the same messages.
func TestWindowMatchesWholeBox(t *testing.T) {
	type world struct {
		name   string
		launch launcher
	}
	worlds := []world{{inprocWorlds[0].name, inprocWorlds[0].launch}, {inprocWorlds[1].name, inprocWorlds[1].launch}}
	for _, sh := range windowShapes {
		for _, mode := range []Mode{Blocking, Overlapped} {
			for _, v := range sh.vs {
				for _, kernel := range []stencil.Kernel{sh.kernel, passThrough{sh.kernel}} {
					path := "block"
					if _, ok := kernel.(passThrough); ok {
						path = "eval"
					}
					ws := worlds
					if sh.name == "3d" && mode == Overlapped && v == 7 && path == "block" {
						ws = append(ws, world{"tcp", tcpLaunch(t)})
					}
					for _, w := range ws {
						p, time := sh.config(v, mode, kernel)
						what := fmt.Sprintf("%s %v V=%d %s %s", sh.name, mode, v, path, w.name)
						if err := w.launch(sh.ranks, func(c mp.Comm) error { return compareWindow(c, p, time) }); err != nil {
							t.Errorf("%s: %v", what, err)
						}
					}
				}
			}
		}
	}
}

// compareWindow is one rank's half of TestWindowMatchesWholeBox: p's
// whole-box run, its timed front door, and the ring that front door
// computes into, read through the run it makes.
func compareWindow(c mp.Comm, p problem, time func(mp.Comm) (Stats, error)) error {
	whole, want, err := p.run(c, p.space[2])
	if err != nil {
		return err
	}
	got, err := time(c)
	if err != nil {
		return err
	}
	want.Elapsed, got.Elapsed = 0, 0
	if got != want {
		return fmt.Errorf("rank %d: Time's stats %+v, Run's %+v", c.Rank(), got, want)
	}
	v, k, w := p.v, p.space[2], ringSlots(p.v, p.space[2])
	if w != k && (w%v != 0 || w < v || w < minRing || w-v >= max(v, minRing)) || w > k {
		return fmt.Errorf("ring of %d slots for V=%d, K=%d", w, v, k)
	}
	ring, _, err := p.run(c, w)
	if err != nil {
		return err
	}
	if int64(len(ring.Data)) != (ring.TI+ring.gi)*(ring.TJ+1)*(w+1) {
		return fmt.Errorf("ring holds %d values for a %d×%d box of %d slots a row", len(ring.Data), ring.TI, ring.TJ, w)
	}
	for li := int64(0); li < whole.TI; li++ {
		for lj := int64(0); lj < whole.TJ; lj++ {
			for k := whole.K - w; k < whole.K; k++ {
				if a, b := ring.at(li, lj, k), whole.at(li, lj, k); math.Float64bits(a) != math.Float64bits(b) {
					return fmt.Errorf("rank %d: ring at(%d,%d,%d) = %v, whole box %v", c.Rank(), li, lj, k, a, b)
				}
			}
		}
	}
	// Mixed front doors: even ranks time, odd ranks keep the grid.
	var mixed Stats
	if c.Rank()%2 == 0 {
		mixed, err = time(c)
	} else {
		_, mixed, err = p.run(c, p.space[2])
	}
	if err != nil {
		return err
	}
	if mixed.Elapsed = 0; mixed != want {
		return fmt.Errorf("rank %d: mixed run's stats %+v, Run's %+v", c.Rank(), mixed, want)
	}
	return nil
}

// panicComm is a communicator no call may reach: every method panics.
type panicComm struct{ mp.Comm }

// TestTimeRejectsCheckpoint: both timed front doors refuse a checkpointing
// Config — a ring cannot be snapshotted into a restorable grid — before
// they touch the communicator or allocate anything.
func TestTimeRejectsCheckpoint(t *testing.T) {
	cfg3 := Config{Grid: model.Grid3D{I: 64, J: 64, K: 2048, PI: 2, PJ: 1}, V: 128, Kernel: stencil.Sqrt3D{}}
	cfg2 := Config2D{I1: 65536, I2: 32, S1: 64, Kernel: stencil.Sum2D{}}
	fields := map[string]CheckpointConfig{
		"Dir":     {Dir: t.TempDir(), Every: 2},
		"Restore": {Restore: true},
	}
	var nowhere mp.Comm = panicComm{}
	for name, ck := range fields {
		c3, c2 := cfg3, cfg2
		c3.Checkpoint, c2.Checkpoint = ck, ck
		for door, call := range map[string]func() error{
			"Time":   func() error { _, err := Time(nowhere, c3); return err },
			"Time2D": func() error { _, err := Time2D(nowhere, c2); return err },
		} {
			var err error
			allocs := testing.AllocsPerRun(10, func() {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("reached the communicator: %v", p)
					}
				}()
				err = call()
			})
			if !errors.Is(err, errTimedCheckpoint) {
				t.Errorf("%s with Checkpoint.%s: err = %v, want %v", door, name, err, errTimedCheckpoint)
			}
			if allocs != 0 {
				t.Errorf("%s with Checkpoint.%s: %v allocations before refusing", door, name, allocs)
			}
		}
	}
}

// at returns the local value at subdomain-relative coordinates
// (li ∈ [−1, TI), lj ∈ [−1, TJ), k ∈ [−1, K); a 2-D run's (row i1, column c)
// is at(0, c, i1)). On a timing run's ring, k reads its slot: the last
// value of k mod w written there.
func (l *Local) at(li, lj, k int64) float64 { return l.Data[l.idx(li, lj, k)] }
