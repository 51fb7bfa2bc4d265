package runner

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/stencil"
)

// TestRandomConfigurations3D sweeps random (space, grid, V, mode)
// combinations through the 3-D executor, each verified bit-exact against
// the sequential reference — the broad-coverage safety net behind the
// hand-picked cases.
func TestRandomConfigurations3D(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		pi := r.Int63n(3) + 1
		pj := r.Int63n(3) + 1
		ti := r.Int63n(3) + 1
		tj := r.Int63n(3) + 1
		k := r.Int63n(40) + 4
		v := r.Int63n(k) + 1
		mode := Mode(r.Intn(2))
		cfg := Config{
			Grid:   model.Grid3D{I: pi * ti, J: pj * tj, K: k, PI: pi, PJ: pj},
			V:      v,
			Kernel: stencil.Sqrt3D{},
			Mode:   mode,
		}
		grid := gatherRun(t, mp.Launch, cfg)
		diff, err := VerifySequential(grid, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff != 0 {
			t.Fatalf("trial %d: %v on %+v V=%d differs by %g", trial, mode, cfg.Grid, v, diff)
		}
	}
}

// TestRandomConfigurations2D does the same for the 2-D strip executor.
func TestRandomConfigurations2D(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 12; trial++ {
		i1 := r.Int63n(80) + 10
		i2 := r.Int63n(40) + 6
		s1 := r.Int63n(i1) + 1
		ranks := int(r.Int63n(5) + 1)
		if int64(ranks) > i2 {
			ranks = int(i2)
		}
		mode := Mode(r.Intn(2))
		cfg := Config2D{I1: i1, I2: i2, S1: s1, Kernel: stencil.Sum2D{}, Mode: mode}
		var grid *stencil.Grid
		var mu sync.Mutex
		err := mp.Launch(ranks, func(c mp.Comm) error {
			l, _, err := Run2D(c, cfg)
			if err != nil {
				return err
			}
			g, err := Gather2D(c, cfg, l)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				mu.Lock()
				grid = g
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d (%dx%d S1=%d ranks=%d): %v", trial, i1, i2, s1, ranks, err)
		}
		diff, err := VerifySequential2D(grid, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff != 0 {
			t.Fatalf("trial %d: %v differs by %g", trial, mode, diff)
		}
	}
}
