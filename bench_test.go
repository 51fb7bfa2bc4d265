// Benchmarks regenerating the paper's evaluation. One benchmark per figure
// and table (Figs. 9-12, Examples 1/3) plus the DESIGN.md ablations and
// micro-benchmarks of the substrates.
//
// The figure benchmarks run the calibrated cluster simulation at 1/16 of
// the paper's k extent per iteration so `go test -bench=.` stays fast; pass
// -fullscale to run the paper's exact spaces (cmd/tilebench always runs
// full scale). Key reproduction metrics are attached via b.ReportMetric:
//
//	improvement_pct — 1 − t_overlap/t_blocking at the benchmark's V
//	model_err_pct   — |analytic − simulated| / simulated (theory column)
package repro

import (
	"context"
	"flag"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
	"repro/internal/topo"
)

var fullScale = flag.Bool("fullscale", false, "run figure benchmarks on the paper's full-size spaces")

// figGrid returns the benchmark variant of a figure's space and a
// representative near-optimal tile height.
func figGrid(s experiments.Sweep, vOpt int64) (model.Grid3D, int64) {
	g := s.Grid
	v := vOpt
	if !*fullScale {
		g.K /= 16
		v = vOpt / 16
		if v < 4 {
			v = 4
		}
	}
	return g, v
}

// benchFigure simulates one (blocking, overlapped) pair per iteration and
// reports the improvement and the analytic-model error.
func benchFigure(b *testing.B, s experiments.Sweep, paperVOpt int64) {
	g, v := figGrid(s, paperVOpt)
	m := s.Machine
	var ov, bl, theory float64
	for i := 0; i < b.N; i++ {
		rOv, err := sim.SimulateGrid(g, v, m, sim.Overlapped, sim.CapDMA, sim.GridOpts{})
		if err != nil {
			b.Fatal(err)
		}
		rBl, err := sim.SimulateGrid(g, v, m, sim.Blocking, sim.CapNone, sim.GridOpts{})
		if err != nil {
			b.Fatal(err)
		}
		ov, bl = rOv.Makespan, rBl.Makespan
		theory = g.PredictOverlap(v, m)
	}
	b.ReportMetric(100*(1-ov/bl), "improvement_pct")
	b.ReportMetric(100*abs(theory-ov)/ov, "model_err_pct")
	b.ReportMetric(ov, "t_overlap_s")
	b.ReportMetric(bl, "t_blocking_s")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkFig9 regenerates Fig. 9 (16×16×16384, V near the paper's 444).
func BenchmarkFig9(b *testing.B) { benchFigure(b, experiments.Fig9(), 444) }

// BenchmarkFig10 regenerates Fig. 10 (16×16×32768, V near the paper's 538).
func BenchmarkFig10(b *testing.B) { benchFigure(b, experiments.Fig10(), 538) }

// BenchmarkFig11 regenerates Fig. 11 (32×32×4096, V near the paper's 164).
func BenchmarkFig11(b *testing.B) { benchFigure(b, experiments.Fig11(), 164) }

// BenchmarkFig12 regenerates one column of the Fig. 12 table per iteration:
// the full optimum search (ladder + refinement) for both schedules on the
// scaled space, reporting the improvement at the optima.
func BenchmarkFig12(b *testing.B) {
	s := experiments.Fig9()
	if !*fullScale {
		s.Grid.K /= 16
		s.Heights = experiments.Ladder(4, s.Grid.K/4)
	}
	var imp float64
	for i := 0; i < b.N; i++ {
		vOv, tOv, err := s.OptimumRefinedCtx(context.Background(), sim.Overlapped)
		if err != nil {
			b.Fatal(err)
		}
		_, tBl, err := s.OptimumRefinedCtx(context.Background(), sim.Blocking)
		if err != nil {
			b.Fatal(err)
		}
		_ = vOv
		imp = 100 * (1 - tOv/tBl)
	}
	b.ReportMetric(imp, "improvement_pct")
}

// benchOptimum measures one ladder-granularity optimum query per mode and
// iteration on a fresh cache (so every DES evaluation is real), reporting
// the mean DES evaluations a query costs — the headline number of the
// tiered-search rework. A query that simulates every rung of the ladder
// fails the benchmark: neither tier may degrade to the exhaustive sweep.
func benchOptimum(b *testing.B, exact bool) {
	s := experiments.Fig9()
	if !*fullScale {
		s.Grid.K /= 16
		s.Heights = experiments.Ladder(4, s.Grid.K/4)
	}
	s.Exact = exact
	rungs := uint64(len(s.OptimumHeights()))
	var evals uint64
	for i := 0; i < b.N; i++ {
		s.Cache = sim.NewCache()
		for _, mode := range []sim.Mode{sim.Overlapped, sim.Blocking} {
			pre := s.Cache.Stats().Evals
			if _, err := s.OptimumDetailCtx(context.Background(), mode); err != nil {
				b.Fatal(err)
			}
			n := s.Cache.Stats().Evals - pre
			if n >= rungs {
				b.Errorf("%s query simulated %d of %d rungs: the lower-bound pruning is gone", mode, n, rungs)
			}
			evals += n
		}
	}
	b.ReportMetric(float64(evals)/float64(2*b.N), "des_evals/query")
}

// BenchmarkOptimumTiered runs the tiered search: analytic seed, a few
// certified probes. Compare its time/op and des_evals/query against
// BenchmarkOptimumSweep.
func BenchmarkOptimumTiered(b *testing.B) { benchOptimum(b, false) }

// BenchmarkOptimumSweep runs the same queries with the tiered path
// disabled: the exact tier alone, which simulates only the rungs whose
// sim.GridLowerBound does not exceed its incumbent.
func BenchmarkOptimumSweep(b *testing.B) { benchOptimum(b, true) }

// lowerBoundSink keeps BenchmarkGridLowerBound's calls from being
// optimised away.
var lowerBoundSink float64

// BenchmarkGridLowerBound times sim.GridLowerBound on an 8×8 processor
// grid, both modes per op: the walk calls it on every certified query,
// cache hits included, and the exact tier once per rung.
func BenchmarkGridLowerBound(b *testing.B) {
	g := model.Grid3D{I: 64, J: 64, K: 4096, PI: 8, PJ: 8}
	m := model.PentiumCluster()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := 1 + int64(i)%g.K
		lowerBoundSink += sim.GridLowerBound(g, v, m, sim.Blocking, sim.CapNone, sim.GridOpts{}) +
			sim.GridLowerBound(g, v, m, sim.Overlapped, sim.CapDMA, sim.GridOpts{})
	}
}

// BenchmarkScaleAllocBudget locks the simulator's allocation budget at
// scale: one overlapped simulation on the scale-sweep's fat tree at 100
// ranks and again at 10000 ranks, with the same per-rank work. The slab
// engine and the CSR fabric must keep per-rank allocations essentially
// flat, so the benchmark fails if the 10000-rank run allocates more than
// 2x the per-rank budget measured at 100 ranks. Runs in make bench-smoke.
func BenchmarkScaleAllocBudget(b *testing.B) {
	spec := topo.FatTree(25, 20, 4, 8, 2e-6, 2)
	m := model.PentiumCluster()
	perRank := func(pi, pj int64) float64 {
		g := model.Grid3D{I: 4 * pi, J: 4 * pj, K: 128, PI: pi, PJ: pj}
		allocs := testing.AllocsPerRun(1, func() {
			_, err := sim.SimulateGrid(g, 64, m, sim.Overlapped, sim.CapDMA,
				sim.GridOpts{Interconnect: spec})
			if err != nil {
				b.Fatal(err)
			}
		})
		return allocs / float64(pi*pj)
	}
	var base, scaled float64
	for i := 0; i < b.N; i++ {
		base = perRank(10, 10)
		scaled = perRank(100, 100)
	}
	b.ReportMetric(base, "allocs/rank@100")
	b.ReportMetric(scaled, "allocs/rank@10k")
	if scaled > 2*base {
		b.Errorf("per-rank allocations at 10000 ranks (%.1f) exceed 2x the 100-rank budget (%.1f)",
			scaled, base)
	}
}

// BenchmarkExamplesPredict evaluates the paper's Examples 1 and 3 — eq. 3
// and eq. 4 of the default Example 1 plan (the values are asserted by
// internal/core's TestPredictExample1).
func BenchmarkExamplesPredict(b *testing.B) {
	p, err := core.NewProblem(space.MustRect(10000, 1000), deps.Example1Deps())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := p.Plan(model.Example1Machine(), core.PlanOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := plan.Predict(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCapability measures the overlap-capability ablation
// (Fig. 3a/b/c): how much each hardware level buys at a fixed tile height.
func BenchmarkAblationCapability(b *testing.B) {
	a := experiments.CapabilityAblation{
		Grid:    model.Grid3D{I: 16, J: 16, K: 1024, PI: 4, PJ: 4},
		V:       64,
		Machine: model.PentiumCluster(),
	}
	var r experiments.CapabilityResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = a.RunCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(1-r.DMA/r.Blocking), "dma_improvement_pct")
	b.ReportMetric(100*(1-r.FullDuplex/r.Blocking), "duplex_improvement_pct")
	b.ReportMetric(100*(1-r.NoDMA/r.Blocking), "nodma_improvement_pct")
}

// BenchmarkAblationMapping measures the mapping-dimension ablation: the
// paper's largest-dimension mapping versus the two alternatives.
func BenchmarkAblationMapping(b *testing.B) {
	a := experiments.MappingAblation{
		SpaceSizes: []int64{8, 8, 512},
		TileSides:  ilmath.V(4, 4, 32),
		Machine:    model.PentiumCluster(),
	}
	var rows []experiments.MappingResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = a.RunCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	best := rows[2].Overlap // largest-dim mapping
	worst := rows[0].Overlap
	if rows[1].Overlap > worst {
		worst = rows[1].Overlap
	}
	b.ReportMetric(100*(1-best/worst), "mapping_gain_pct")
}

// BenchmarkAblationScheduleVector compares the two schedule vectors under
// identical no-DMA hardware: the overlapped Π only pays off with hardware
// support, so this isolates the schedule's contribution.
func BenchmarkAblationScheduleVector(b *testing.B) {
	g := model.Grid3D{I: 16, J: 16, K: 1024, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	var bl, ovNoDMA float64
	for i := 0; i < b.N; i++ {
		rBl, err := sim.SimulateGrid(g, 64, m, sim.Blocking, sim.CapNone, sim.GridOpts{})
		if err != nil {
			b.Fatal(err)
		}
		rOv, err := sim.SimulateGrid(g, 64, m, sim.Overlapped, sim.CapNone, sim.GridOpts{})
		if err != nil {
			b.Fatal(err)
		}
		bl, ovNoDMA = rBl.Makespan, rOv.Makespan
	}
	b.ReportMetric(100*(1-ovNoDMA/bl), "schedule_only_gain_pct")
}

// --- substrate micro-benchmarks ---

// simAllocsPerTile is the allocation ceiling of one simulated tile on a
// reused sim.Simulator: the engine's slabs, heaps and edge buffers are
// recycled, so only the builder's per-run index arrays remain, a handful
// per simulation, not per tile.
const simAllocsPerTile = 0.05

// BenchmarkSimEngine measures end-to-end simulation throughput
// (activities/second, graph build plus discrete-event run) on a reused
// sim.Simulator, the way a sim.Cache miss runs, and gates each case's
// allocations per tile at simAllocsPerTile. Runs in make bench-smoke.
//
// The cases: a 4×4 grid under each schedule; the grid of a large planning
// request (8×8 processors, 64×64×16384 at V = 128) under each schedule,
// where dozens of activities are in flight at once, most of them sharing
// a handful of durations; and that grid overlapped under a fault plan
// whose jitter, stragglers and slow ports make the durations nearly all
// distinct, the engine's worst case for per-duration event queues.
func BenchmarkSimEngine(b *testing.B) {
	small := model.Grid3D{I: 8, J: 8, K: 512, PI: 4, PJ: 4}
	large := model.Grid3D{I: 64, J: 64, K: 16384, PI: 8, PJ: 8}
	for _, mode := range []sim.Mode{sim.Blocking, sim.Overlapped} {
		b.Run(mode.String(), func(b *testing.B) { benchSimEngine(b, small, 8, mode, fault.Plan{}) })
	}
	for _, mode := range []sim.Mode{sim.Blocking, sim.Overlapped} {
		b.Run("8x8/"+mode.String(), func(b *testing.B) { benchSimEngine(b, large, 128, mode, fault.Plan{}) })
	}
	jitter := fault.Plan{Seed: 7, Intensity: 1, CPUStraggle: 0.3, LinkSlowdown: 0.3, WireJitter: 0.5}
	b.Run("8x8/jitter", func(b *testing.B) { benchSimEngine(b, large, 128, sim.Overlapped, jitter) })
}

func benchSimEngine(b *testing.B, g model.Grid3D, v int64, mode sim.Mode, fp fault.Plan) {
	m := model.PentiumCluster()
	cfg, err := sim.GridConfig(g, v, m, mode, sim.CapDMA)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Fault = fp
	acts, _, err := sim.BuildStats(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sm := sim.NewSimulator()
	var r sim.Result
	run := func() {
		if r, err = sm.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the engine's slabs so every timed run reuses them
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(acts)*float64(b.N)/b.Elapsed().Seconds(), "activities/s")
	b.StopTimer()
	perTile := testing.AllocsPerRun(2, run) / float64(r.NumTiles)
	b.ReportMetric(perTile, "allocs/tile")
	if perTile > simAllocsPerTile {
		b.Errorf("%.3f allocations per simulated tile exceed the budget of %.2f: the reused engine allocates per tile again",
			perTile, simAllocsPerTile)
	}
}

// BenchmarkSimBuild measures activity-DAG construction alone (no Run), so
// builder-layer regressions are visible separately from engine-layer ones.
func BenchmarkSimBuild(b *testing.B) {
	g := model.Grid3D{I: 8, J: 8, K: 512, PI: 4, PJ: 4}
	m := model.PentiumCluster()
	cfg, err := sim.GridConfig(g, 8, m, sim.Overlapped, sim.CapDMA)
	if err != nil {
		b.Fatal(err)
	}
	var acts int
	for i := 0; i < b.N; i++ {
		acts, _, err = sim.BuildStats(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(acts), "activities")
}

// BenchmarkSimCache measures sim.Cache's own cost on the tiny 2×2×1024 grid
// of the benchmark ladder's sim.cache.* rungs (bench/ladder.go), which only
// run in the full benchmark: a hit, a miss that evaluates and inserts, and a
// miss into a full bounded cache that also evicts. Tile heights from 512 to
// 1023 are the keys, so a DES evaluation is one or two tiles per rank and
// the lookup itself dominates. The hit path is gated at zero allocations;
// runs in make bench-smoke.
func BenchmarkSimCache(b *testing.B) {
	tiny := model.Grid3D{I: 2, J: 2, K: 1024, PI: 1, PJ: 1}
	m := model.PentiumCluster()
	const keys = 512
	lookup := func(c *sim.Cache, i int) {
		_, err := c.SimulateGridCtx(context.Background(), tiny, 1023-int64(i%keys), m,
			sim.Overlapped, sim.CapDMA, sim.GridOpts{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("hit", func(b *testing.B) {
		c := sim.NewCache()
		for i := 0; i < keys; i++ {
			lookup(c, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lookup(c, i)
		}
		b.StopTimer()
		if allocs := testing.AllocsPerRun(100, func() { lookup(c, 7) }); allocs != 0 {
			b.Errorf("a cache hit allocates %.1f times, want 0", allocs)
		}
	})
	b.Run("miss-insert", func(b *testing.B) {
		b.ReportAllocs()
		var c *sim.Cache
		for i := 0; i < b.N; i++ {
			if i%keys == 0 {
				c = sim.NewCache()
			}
			lookup(c, i)
		}
	})
	b.Run("evict", func(b *testing.B) {
		const bound = keys / 4
		c := sim.NewCacheBounded(bound)
		for i := 0; i < bound; i++ {
			lookup(c, i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		// Cycling through more keys than the bound misses every time.
		for i := bound; i < bound+b.N; i++ {
			lookup(c, i)
		}
		b.StopTimer()
		if st := c.Stats(); st.Evictions != uint64(b.N) {
			b.Errorf("%d evictions over %d inserts into a full cache", st.Evictions, b.N)
		}
	})
}

// BenchmarkSweepParallel measures one full parallel sweep (both schedules
// at every height) through the worker pool, with a fresh cache per
// iteration so every point is really simulated.
func BenchmarkSweepParallel(b *testing.B) {
	s := experiments.Fig9()
	if !*fullScale {
		s.Grid.K /= 16
		s.Heights = experiments.Ladder(4, s.Grid.K/4)
	}
	var rows []experiments.SweepRow
	for i := 0; i < b.N; i++ {
		s.Cache = sim.NewCache()
		var err error
		rows, err = s.RunCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rows)), "heights")
}

// BenchmarkMPInprocRoundTrip measures the in-process transport's
// request-reply latency.
func BenchmarkMPInprocRoundTrip(b *testing.B) {
	w, comms, err := mp.NewWorld(2)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 8)
		for {
			if _, err := comms[1].Recv(0, 1, buf); err != nil {
				return
			}
			if err := comms[1].Send(0, 2, buf); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 8)
	buf := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := comms[0].Send(1, 1, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := comms[0].Recv(1, 2, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w.Close()
	<-done
}

// BenchmarkMPInprocThroughput measures bulk one-way bandwidth of the
// in-process transport with 64 KiB messages.
func BenchmarkMPInprocThroughput(b *testing.B) {
	const msgSize = 64 << 10
	w, comms, err := mp.NewWorld(2)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, msgSize)
		for i := 0; i < b.N; i++ {
			if _, err := comms[1].Recv(0, 1, buf); err != nil {
				return
			}
		}
	}()
	payload := make([]byte, msgSize)
	b.SetBytes(msgSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := comms[0].Send(1, 1, payload); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
}

// BenchmarkRunnerBlocking measures the real blocking execution (ProcB) on
// the in-process fabric.
func BenchmarkRunnerBlocking(b *testing.B) { benchRunner(b, runner.Blocking) }

// BenchmarkRunnerOverlapped measures the real overlapped execution (ProcNB).
func BenchmarkRunnerOverlapped(b *testing.B) { benchRunner(b, runner.Overlapped) }

// runnerAllocsPerTile is the allocation ceiling of one (rank, k-tile) step
// of a real run, world set-up amortised in: each tile may cost what the
// in-process transport allocates for its at most two messages (2–3 each,
// measured in internal/runner's TestTileLoopAllocationFree) and nothing
// that grows with the points in the tile. Measured: 4.6 blocking, 5.6
// overlapped.
const runnerAllocsPerTile = 8

func benchRunner(b *testing.B, mode runner.Mode) {
	cfg := runner.Config{
		Grid:   model.Grid3D{I: 8, J: 8, K: 1024, PI: 2, PJ: 2},
		V:      64,
		Kernel: stencil.Sqrt3D{},
		Mode:   mode,
	}
	points := cfg.Grid.I * cfg.Grid.J * cfg.Grid.K
	run := func() {
		err := mp.Launch(4, func(c mp.Comm) error {
			_, _, err := runner.Run(c, cfg)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(points*int64(b.N))/b.Elapsed().Seconds(), "points/s")
	b.StopTimer()
	tiles := float64(cfg.Grid.PI * cfg.Grid.PJ * cfg.Grid.KTiles(cfg.V))
	perTile := testing.AllocsPerRun(1, run) / tiles
	b.ReportMetric(perTile, "allocs/tile")
	if perTile > runnerAllocsPerTile {
		b.Errorf("%.1f allocations per tile (%d points each) exceed the budget of %d: the tile loop allocates again",
			perTile, points/int64(tiles), runnerAllocsPerTile)
	}
}

// BenchmarkRunner2D measures the Example 1 front door on the ladder's
// geometry (bench/ladder.go: 65536×32, S1 = 64, two in-process ranks) under
// the same allocation gate, so Run2D cannot go back to a buffer per message
// unnoticed. Each tile has one message; measured 1.5 allocations per tile.
func BenchmarkRunner2D(b *testing.B) {
	cfg := runner.Config2D{I1: 65536, I2: 32, S1: 64, Kernel: stencil.Sum2D{}, Mode: runner.Overlapped}
	const ranks = 2
	run := func() {
		err := mp.Launch(ranks, func(c mp.Comm) error {
			_, _, err := runner.Run2D(c, cfg)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(cfg.I1*cfg.I2*int64(b.N))/b.Elapsed().Seconds(), "points/s")
	b.StopTimer()
	tiles := float64(ranks * cfg.I1 / cfg.S1)
	perTile := testing.AllocsPerRun(1, run) / tiles
	b.ReportMetric(perTile, "allocs/tile")
	if perTile > runnerAllocsPerTile {
		b.Errorf("%.1f allocations per tile exceed the budget of %d: the 2-D tile loop allocates again", perTile, runnerAllocsPerTile)
	}
}

// gatherAllocRatio caps the bytes runner.Gather allocates per byte of grid
// it assembles: the grid itself, two chunk buffers on each side and the
// transport's per-message bookkeeping. Measured 1.06 on the coarse geometry;
// a gather that went back to box-sized buffers allocates 3 or more.
const gatherAllocRatio = 1.1

// BenchmarkGather measures the gather that follows every run on the
// benchmark's node3d-coarse geometry (bench/README.md): 64×64×2048 on 2×1
// in-process ranks, V = 128, one Run, then one Gather on both ranks per
// iteration. It reports the rate at which rank 0 receives the grid and the
// bytes allocated per byte gathered, gated at gatherAllocRatio.
func BenchmarkGather(b *testing.B) {
	cfg := runner.Config{
		Grid:   model.Grid3D{I: 64, J: 64, K: 2048, PI: 2, PJ: 1},
		V:      128,
		Kernel: stencil.Sqrt3D{},
		Mode:   runner.Overlapped,
	}
	gridBytes := 8 * cfg.Grid.I * cfg.Grid.J * cfg.Grid.K
	w, comms, err := mp.NewWorld(2)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	var locals [2]*runner.Local
	each := func(fn func(c mp.Comm) error) {
		var wg sync.WaitGroup
		errs := make([]error, len(comms))
		for r, c := range comms {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[r] = fn(c)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	each(func(c mp.Comm) (err error) {
		locals[c.Rank()], _, err = runner.Run(c, cfg)
		return err
	})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.SetBytes(gridBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		each(func(c mp.Comm) error {
			_, err := runner.Gather(c, cfg, locals[c.Rank()])
			return err
		})
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(gridBytes*int64(b.N))
	b.ReportMetric(perByte, "alloc_B/B")
	if perByte > gatherAllocRatio {
		b.Errorf("the gather allocates %.2f bytes per byte gathered, over the budget of %.2f: a box-sized buffer is back",
			perByte, gatherAllocRatio)
	}
}

// BenchmarkStencilSequential measures the sequential reference kernel
// (points/second), the baseline t_c of the machine model.
func BenchmarkStencilSequential(b *testing.B) {
	sp := space.MustRect(32, 32, 64)
	for i := 0; i < b.N; i++ {
		if _, err := stencil.RunSequential(sp, stencil.Sqrt3D{}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(sp.Volume() * 8)
}

// coarseRingSlots is the k-extent of a row in node3d-coarse's timed reps:
// runner.Time computes into a ring of runner's ringSlots(128, 2048) = 128
// k-slots per row (one tile of V = 128) instead of the whole column.
const coarseRingSlots = 128

// BenchmarkStencilBlock measures the kernel the runner actually calls,
// Sqrt3D's block sweep, one tile per iteration on the two rank boxes of the
// benchmark's node geometries (bench/README.md), laid out as runner.Local
// lays them out, ghosts included: node3d-coarse's 32×64 cross-section of a
// K = 2048 column at V = 128, which takes the grouped sweep, once at the
// whole-column pitch of a checked rep (coarse) and once at the ring pitch
// of a timed one (coarse-ring), and node3d-fine's 8×1 cross-section of
// K = 16384 at V = 1, which takes the plain row loop. It reports ns/point
// and fails if a sweep allocates.
func BenchmarkStencilBlock(b *testing.B) {
	for _, c := range []struct {
		name             string
		ti, tj, slots, v int // slots: the k-extent a row is laid out over
	}{
		{"coarse", 32, 64, 2048, 128},
		{"coarse-ring", 32, 64, coarseRingSlots, 128},
		{"fine", 8, 1, 16384, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			sj := c.slots + 1     // j-row pitch: the k−1 ghost, then the slots
			si := (c.tj + 1) * sj // i-plane pitch
			a := make([]float64, (c.ti+1)*si)
			for x := range a {
				a[x] = 1 // the boundary value, in the ghosts and as a start everywhere else
			}
			var blk stencil.Block3D = stencil.Sqrt3D{}
			tiles := c.slots / c.v
			tile := 0
			sweep := func() {
				blk.SweepBlock(a, si+sj+1+tile*c.v, c.ti, c.tj, c.v, si, sj)
				tile = (tile + 1) % tiles
			}
			for range tiles {
				sweep() // first touch of the whole row, outside the timing
			}
			if n := testing.AllocsPerRun(10, sweep); n != 0 {
				b.Errorf("one sweep allocates %.0f times", n)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*c.ti*c.tj*c.v), "ns/point")
		})
	}
}

// BenchmarkAblationNetwork measures the interconnect ablation: switched
// versus shared-bus medium at 10 Mbps-era wire speed, where bus contention
// visibly erodes the overlap gain.
func BenchmarkAblationNetwork(b *testing.B) {
	m := model.PentiumCluster()
	m.Tt = 0.8e-6 // 10 Mbps shared medium
	a := experiments.NetworkAblation{
		Grid:    model.Grid3D{I: 16, J: 16, K: 1024, PI: 4, PJ: 4},
		V:       64,
		Machine: m,
	}
	var r experiments.NetworkResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = a.RunCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(1-r.OverlapSwitched/r.BlockingSwitched), "switched_gain_pct")
	b.ReportMetric(100*(1-r.OverlapSharedBus/r.BlockingSharedBus), "bus_gain_pct")
}

// BenchmarkAblationStraggler measures both schedules' sensitivity to one
// half-speed node.
func BenchmarkAblationStraggler(b *testing.B) {
	a := experiments.StragglerAblation{
		Grid:      model.Grid3D{I: 16, J: 16, K: 1024, PI: 4, PJ: 4},
		V:         64,
		Machine:   model.PentiumCluster(),
		Straggler: 5,
		Slowdowns: []float64{0.5},
	}
	var rows []experiments.StragglerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = a.RunCtx(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].BlockingSlowdown, "blocking_slowdown_x")
	b.ReportMetric(rows[0].OverlapSlowdown, "overlap_slowdown_x")
}

// BenchmarkExample1Simulated runs the paper's Example 1 plan (10×10 tiles
// mapped along i₁, 100 strips) on the simulated cluster, both schedules,
// reporting how close the overlapped makespan lands to the paper's
// headline 0.24 s.
func BenchmarkExample1Simulated(b *testing.B) {
	p, err := core.NewProblem(space.MustRect(10000, 1000), deps.Example1Deps())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := p.Plan(model.Example1Machine(), core.PlanOptions{TileSides: ilmath.V(10, 10)})
	if err != nil {
		b.Fatal(err)
	}
	var ov, bl float64
	for i := 0; i < b.N; i++ {
		r, err := plan.Simulate(sim.CapDMA)
		if err != nil {
			b.Fatal(err)
		}
		ov, bl = r.Overlap.Makespan, r.NonOverlap.Makespan
	}
	b.ReportMetric(ov, "t_overlap_s")
	b.ReportMetric(bl, "t_blocking_s")
	b.ReportMetric(100*(1-ov/bl), "improvement_pct")
}
