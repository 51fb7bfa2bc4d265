package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/sim"
)

// cancelSweep returns a small sweep with a shared cache, sized so a full
// ladder pass issues a few dozen DES evaluations.
func cancelSweep() Sweep {
	g := model.Grid3D{I: 8, J: 8, K: 1024, PI: 4, PJ: 4}
	return Sweep{
		ID: "cancel", Title: "cancellation suite",
		Grid: g, Heights: Ladder(4, g.K/4),
		Machine: model.PentiumCluster(), Cap: sim.CapDMA,
		Cache: sim.NewCache(),
	}
}

// sweepOps is the table of context-bearing entry points the cancellation
// contract covers: every experiment's RunCtx, the optimum searches,
// Fig12For and Examples. Each op must surface the context error unwrapped
// (errors.Is) without issuing DES work under a dead context. Experiments
// with a Cache field run on the sweep's cache, where the test counts the
// evaluations; the ablations keep a private cache, so for them the last op
// pins the pool's guarantee directly: evalAll starts no evaluation under a
// dead context, even one whose closure ignores ctx as the mapping and
// straggler ablations' do.
var sweepOps = []struct {
	name string
	call func(ctx context.Context, s Sweep) error
}{
	{"RunCtx", func(ctx context.Context, s Sweep) error {
		_, err := s.RunCtx(ctx)
		return err
	}},
	{"OptimumDetailCtx", func(ctx context.Context, s Sweep) error {
		_, err := s.OptimumDetailCtx(ctx, sim.Blocking)
		return err
	}},
	{"OptimumExactCtx", func(ctx context.Context, s Sweep) error {
		_, _, err := s.OptimumExactCtx(ctx, sim.Overlapped)
		return err
	}},
	{"OptimumRefinedCtx", func(ctx context.Context, s Sweep) error {
		_, _, err := s.OptimumRefinedCtx(ctx, sim.Overlapped)
		return err
	}},
	{"Fig12For", func(ctx context.Context, s Sweep) error {
		_, err := Fig12For(ctx, []Sweep{s})
		return err
	}},
	{"FaultSweep.RunCtx", func(ctx context.Context, s Sweep) error {
		f := smallFaultSweep()
		f.Cache = s.Cache
		_, err := f.RunCtx(ctx)
		return err
	}},
	{"RecoverySweep.RunCtx", func(ctx context.Context, s Sweep) error {
		r := testRecoverySweep()
		r.Cache = s.Cache
		_, err := r.RunCtx(ctx)
		return err
	}},
	{"ScaleSweep.RunCtx", func(ctx context.Context, s Sweep) error {
		sc := tinyScale()
		sc.Cache = s.Cache
		_, err := sc.RunCtx(ctx)
		return err
	}},
	{"CapabilityAblation.RunCtx", func(ctx context.Context, s Sweep) error {
		_, err := CapabilityAblation{Grid: s.Grid, V: 16, Machine: s.Machine}.RunCtx(ctx)
		return err
	}},
	{"NetworkAblation.RunCtx", func(ctx context.Context, s Sweep) error {
		_, err := NetworkAblation{Grid: s.Grid, V: 16, Machine: s.Machine}.RunCtx(ctx)
		return err
	}},
	{"MappingAblation.RunCtx", func(ctx context.Context, s Sweep) error {
		a := MappingAblation{SpaceSizes: []int64{8, 8, 128}, TileSides: ilmath.V(4, 4, 8), Machine: s.Machine}
		_, err := a.RunCtx(ctx)
		return err
	}},
	{"StragglerAblation.RunCtx", func(ctx context.Context, s Sweep) error {
		a := StragglerAblation{Grid: s.Grid, V: 16, Machine: s.Machine, Straggler: 5, Slowdowns: []float64{0.5}}
		_, err := a.RunCtx(ctx)
		return err
	}},
	{"Examples", func(ctx context.Context, s Sweep) error {
		_, err := Examples(ctx)
		return err
	}},
	{"evalAll", func(ctx context.Context, s Sweep) error {
		_, err := evalAll(ctx, 4, func(_ context.Context, i int) (sim.Result, error) {
			return s.Cache.SimulateGridCtx(context.Background(), s.Grid, s.Heights[i], s.Machine, sim.Blocking, sim.CapNone, sim.GridOpts{})
		})
		return err
	}},
	{"evalAll/one point", func(ctx context.Context, s Sweep) error {
		_, err := evalAll(ctx, 1, func(ctx context.Context, i int) (sim.Result, error) {
			return s.Cache.SimulateGridCtx(ctx, s.Grid, s.Heights[i], s.Machine, sim.Blocking, sim.CapNone, sim.GridOpts{})
		})
		return err
	}},
}

// TestEvalAllOnePointCancelledDuringEval: a one-point batch runs inline,
// and a parent cancelled while its point evaluates still surfaces as the
// bare context error, not as the point's own error.
func TestEvalAllOnePointCancelledDuringEval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := evalAll(ctx, 1, func(context.Context, int) (sim.Result, error) {
		cancel()
		return sim.Result{}, fmt.Errorf("point 0: %w", errors.New("interrupted"))
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want the bare context.Canceled", err)
	}
}

// TestCancelledContextRejectedPromptly: every entry point returns the
// context's own error for an already-dead context and issues zero DES
// evaluations doing so.
func TestCancelledContextRejectedPromptly(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel2()
	ctxs := []struct {
		name string
		ctx  context.Context
		want error
	}{
		{"cancelled", cancelled, context.Canceled},
		{"deadline", expired, context.DeadlineExceeded},
	}
	for _, op := range sweepOps {
		for _, tc := range ctxs {
			t.Run(op.name+"/"+tc.name, func(t *testing.T) {
				s := cancelSweep()
				err := op.call(tc.ctx, s)
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
				if st := s.Cache.Stats(); st.Evals != 0 {
					t.Errorf("dead context still ran %d DES evaluations", st.Evals)
				}
			})
		}
	}
}

// cancelAfterEval is a test-owned context that the first DES evaluation
// counted in cache cancels: from then on Err reports context.Canceled, and
// Done closes the first time Err says so. No goroutine has to be scheduled
// to cancel it, so evalAll, which asks its parent before every point, stops
// at its next point even while its workers never yield.
type cancelAfterEval struct {
	context.Context
	cache *sim.Cache
	once  sync.Once
	done  chan struct{}
}

func cancelAfterFirstEval(cache *sim.Cache) *cancelAfterEval {
	return &cancelAfterEval{Context: context.Background(), cache: cache, done: make(chan struct{})}
}

func (c *cancelAfterEval) Done() <-chan struct{} {
	c.Err()
	return c.done
}

func (c *cancelAfterEval) Err() error {
	if c.cache.Stats().Evals == 0 {
		return nil
	}
	c.once.Do(func() { close(c.done) })
	return context.Canceled
}

// TestCancelMidLadder cancels an exhaustive sweep after its first DES
// evaluation lands and checks the run aborts mid-ladder: the returned
// error is context.Canceled and fewer than the full ladder's evaluations
// ran. The cancel comes from the evaluation count itself (cancelAfterEval),
// not from a goroutine polling it, so it holds however the host schedules:
// on two workers at most one more evaluation than the first can have
// started before the cancel, and the ladder has 14.
func TestCancelMidLadder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // evalAll's worker count
	s := cancelSweep()
	s.Exact = true // force the full ladder so "mid-ladder" has meat
	total := 2 * len(s.Heights)

	_, err := s.RunCtx(cancelAfterFirstEval(s.Cache))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := s.Cache.Stats(); st.Evals >= uint64(total) {
		t.Errorf("cancel did not stop the ladder: %d of %d evaluations ran", st.Evals, total)
	}
}

// TestCancelThenRerunBitIdentical: after a cancelled attempt, the same
// cache answers an uncancelled query bit-identically to a fresh cache —
// cancellation never leaves partial state that changes an answer.
func TestCancelThenRerunBitIdentical(t *testing.T) {
	s := cancelSweep()
	if _, err := s.RunCtx(cancelAfterFirstEval(s.Cache)); !errors.Is(err, context.Canceled) {
		t.Fatalf("setup cancel failed: %v", err)
	}

	rows, err := s.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := cancelSweep() // pristine cache
	want, err := ref.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("row count %d != %d", len(rows), len(want))
	}
	for i := range rows {
		if rows[i] != want[i] {
			t.Errorf("row %d differs after cancelled warm-up: %+v != %+v", i, rows[i], want[i])
		}
	}

	// Same for the optimum query path.
	o1, err := s.OptimumDetailCtx(context.Background(), sim.Overlapped)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := ref.OptimumDetailCtx(context.Background(), sim.Overlapped)
	if err != nil {
		t.Fatal(err)
	}
	if o1.V != o2.V || o1.T != o2.T {
		t.Errorf("optimum after cancel (V=%d t=%g) != fresh (V=%d t=%g)", o1.V, o1.T, o2.V, o2.T)
	}
}
