package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/estimate"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/planapi"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
)

// The ladder is the workload-independent half of the per-layer report:
// each layer's public entry points timed in isolation, bottom up, so that
// a linear cost model (the paper's eq. 3–5: t_c, the A/B phases) can later
// be fitted to measured kernel and transfer costs. Every timing here is a
// median over a few batches; none is gated.

const ladderDeadline = 2 * time.Minute // bounds every blocking mp wait below

// medianOf runs fn n times and returns the median of what it reports.
func medianOf(n int, fn func() float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = fn()
	}
	return median(xs)
}

// timed returns how long fn took, in seconds.
func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// mallocs returns the heap allocations (count, bytes) fn caused, process
// wide — the harness is otherwise idle while a ladder rung runs.
func mallocs(fn func()) (count, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

type ladder struct {
	m   map[string]float64
	err error
}

func (l *ladder) fail(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

// runLadder measures every rung. scratch is a directory for checkpoint
// files; coldReqs is (a slice of) the seed's cold request list.
func runLadder(ctx context.Context, scratch string, coldReqs []planapi.PlanRequest) (map[string]float64, error) {
	l := &ladder{m: make(map[string]float64)}
	l.stencil()
	l.runner(scratch)
	l.mp()
	l.obs()
	l.model()
	l.sim(ctx)
	l.estimate(ctx, coldReqs)
	l.planapi(coldReqs[0])
	return l.m, l.err
}

func (l *ladder) stencil() {
	sp3 := space.MustRect(64, 64, 64)
	pts := float64(sp3.Volume())
	l.m["stencil.sqrt3d_ns_per_point"] = medianOf(5, func() float64 {
		return timed(func() { _, err := stencil.RunSequential(sp3, stencil.Sqrt3D{}, nil); l.fail(err) }) * 1e9 / pts
	})
	n, _ := mallocs(func() { _, err := stencil.RunSequential(sp3, stencil.Sqrt3D{}, nil); l.fail(err) })
	l.m["stencil.sqrt3d_allocs_per_point"] = n / pts
	sp2 := space.MustRect(256, 256)
	l.m["stencil.sum2d_ns_per_point"] = medianOf(5, func() float64 {
		return timed(func() { _, err := stencil.RunSequential(sp2, stencil.Sum2D{}, nil); l.fail(err) }) * 1e9 / float64(sp2.Volume())
	})
}

func (g nodeGeom) config(mode runner.Mode) runner.Config {
	return runner.Config{
		Grid:   model.Grid3D{I: g.I, J: g.J, K: g.K, PI: g.PI, PJ: g.PJ},
		V:      g.V,
		Kernel: stencil.Sqrt3D{},
		Mode:   mode,
	}
}

// inprocRun executes cfg on two in-process ranks and returns rank 0's
// barrier-to-barrier time. wrap, if not nil, decorates each rank's Comm;
// after, if not nil, runs on every rank once Run has returned.
func inprocRun(cfg runner.Config, wrap func(mp.Comm) mp.Comm, after func(mp.Comm, *runner.Local) error) (float64, error) {
	var elapsed float64
	err := mp.LaunchOpts(2, mp.WorldOptions{RendezvousThreshold: -1, Deadline: ladderDeadline}, func(c mp.Comm) error {
		if wrap != nil {
			c = wrap(c)
		}
		local, stats, err := runner.Run(c, cfg)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			elapsed = stats.Elapsed.Seconds()
		}
		if after != nil {
			return after(c, local)
		}
		return nil
	})
	return elapsed, err
}

func (l *ladder) runner(scratch string) {
	// Compute-bound geometry: point rate per schedule, allocations per
	// point, and the gather that follows every run.
	coarsePts := float64(coarseGeom.points())
	for _, mode := range []runner.Mode{runner.Blocking, runner.Overlapped} {
		cfg := coarseGeom.config(mode)
		var gatherS float64
		var elapsed float64
		n, _ := mallocs(func() {
			var err error
			elapsed, err = inprocRun(cfg, nil, func(c mp.Comm, local *runner.Local) error {
				start := time.Now()
				_, err := runner.Gather(c, cfg, local)
				if c.Rank() == 0 {
					gatherS = time.Since(start).Seconds()
				}
				return err
			})
			l.fail(err)
		})
		l.m["runner.points_per_s_"+mode.String()] = coarsePts / elapsed
		if mode == runner.Blocking {
			l.m["runner.allocs_per_point"] = n / coarsePts // includes the gather's
			l.m["runner.gather_mb_per_s"] = 8 * coarsePts / 1e6 / gatherS
		}
	}

	// Start-up-bound geometry: what a tile costs beyond its eight points.
	cfg := fineGeom.config(runner.Blocking)
	tiles := float64(fineGeom.tiles())
	var elapsed float64
	n, b := mallocs(func() {
		var err error
		elapsed, err = inprocRun(cfg, nil, nil)
		l.fail(err)
	})
	ranks := float64(fineGeom.ranks())
	l.m["runner.allocs_per_tile"] = n / (tiles * ranks)
	l.m["runner.alloc_bytes_per_tile"] = b / (tiles * ranks)
	pointsPerRank := float64(fineGeom.points()) / ranks
	l.m["runner.tile_overhead_us"] = (elapsed*1e9 - pointsPerRank*l.m["stencil.sqrt3d_ns_per_point"]) / tiles / 1e3

	// The 2-D executor, plain and with four snapshots, so that merging the
	// executors (ROADMAP item 2) has a number to hold still.
	cfg2 := runner.Config2D{I1: 65536, I2: 32, S1: 64, Kernel: stencil.Sum2D{}, Mode: runner.Overlapped}
	run2d := func(cfg runner.Config2D) (s runner.Stats) {
		l.fail(mp.LaunchOpts(2, mp.WorldOptions{RendezvousThreshold: -1, Deadline: ladderDeadline}, func(c mp.Comm) error {
			_, stats, err := runner.Run2D(c, cfg)
			if c.Rank() == 0 {
				s = stats
			}
			return err
		}))
		return s
	}
	plain := run2d(cfg2)
	l.m["runner.run2d_points_per_s"] = float64(cfg2.I1*cfg2.I2) / plain.Elapsed.Seconds()
	tiles2 := (cfg2.I1 + cfg2.S1 - 1) / cfg2.S1
	cfg2.Checkpoint = runner.CheckpointConfig{Dir: filepath.Join(scratch, "ckpt"), Every: tiles2 / 4}
	l.fail(os.MkdirAll(cfg2.Checkpoint.Dir, 0o755))
	ck := run2d(cfg2)
	if ck.Checkpoints > 0 {
		// Rank 0's snapshots; the other rank writes its own concurrently.
		perSnap := (ck.Elapsed - plain.Elapsed).Seconds() / float64(ck.Checkpoints)
		if perSnap <= 0 {
			perSnap = 1e-6 // lost in the run-to-run noise of the two executions
		}
		l.m["runner.checkpoint_ms"] = perSnap * 1e3
		l.m["runner.checkpoint_mb_per_s"] = float64(ck.CheckpointBytes) / float64(ck.Checkpoints) / 1e6 / perSnap
	}
}

// commPair is two connected endpoints of one transport.
type commPair struct {
	c     [2]mp.Comm
	close func()
}

func inprocPair() (commPair, error) {
	w, comms, err := mp.NewWorldOpts(2, mp.WorldOptions{RendezvousThreshold: -1, Deadline: ladderDeadline})
	if err != nil {
		return commPair{}, err
	}
	return commPair{c: [2]mp.Comm{comms[0], comms[1]}, close: func() { w.Close() }}, nil
}

// tcpPair meshes two ranks up over loopback and reports how long that took.
func tcpPair() (commPair, float64, error) {
	addrs, err := loopbackAddrs(2)
	if err != nil {
		return commPair{}, 0, err
	}
	var p commPair
	errs := make([]error, 2)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			p.c[r], errs[r] = mp.ConnectTCP(r, 2, addrs, &mp.TCPOptions{Deadline: ladderDeadline})
		}(r)
	}
	wg.Wait()
	connectS := time.Since(start).Seconds()
	p.close = func() {
		for _, c := range p.c {
			if c != nil {
				c.Close()
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			p.close()
			return commPair{}, 0, err
		}
	}
	return p, connectS, nil
}

// pingPong times n round trips of size-byte messages; rank 1 echoes.
func pingPong(p commPair, n, size int) (float64, error) {
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			if _, err := p.c[1].Recv(0, 0, buf); err != nil {
				errc <- err
				return
			}
			if err := p.c[1].Send(0, 0, buf); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	buf := make([]byte, size)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := p.c[0].Send(1, 0, buf); err != nil {
			return 0, err
		}
		if _, err := p.c[0].Recv(1, 0, buf); err != nil {
			return 0, err
		}
	}
	d := time.Since(start).Seconds()
	return d, <-errc
}

// stream times n one-way size-byte messages, closed by one ack.
func stream(p commPair, n, size int) (float64, error) {
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, size)
		for i := 0; i < n; i++ {
			if _, err := p.c[1].Recv(0, 0, buf); err != nil {
				errc <- err
				return
			}
		}
		errc <- p.c[1].Send(0, 1, nil)
	}()
	buf := make([]byte, size)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := p.c[0].Send(1, 0, buf); err != nil {
			return 0, err
		}
	}
	if _, err := p.c[0].Recv(1, 1, nil); err != nil {
		return 0, err
	}
	d := time.Since(start).Seconds()
	return d, <-errc
}

func (l *ladder) mp() {
	const (
		trips   = 5000
		msgs    = 1000
		msgSize = 64 << 10
	)
	measure := func(prefix string, p commPair) {
		defer p.close()
		l.m[prefix+".roundtrip_us"] = medianOf(3, func() float64 {
			d, err := pingPong(p, trips, 8)
			l.fail(err)
			return d / trips * 1e6
		})
		l.m[prefix+".throughput_mb_per_s"] = medianOf(3, func() float64 {
			d, err := stream(p, msgs, msgSize)
			l.fail(err)
			return msgs * msgSize / 1e6 / d
		})
		if prefix == "mp.tcp" {
			n, _ := mallocs(func() { _, err := pingPong(p, trips, 8); l.fail(err) })
			l.m["mp.tcp.allocs_per_msg"] = n / (2 * trips)
		}
	}
	if p, err := inprocPair(); err != nil {
		l.fail(err)
	} else {
		measure("mp.inproc", p)
	}
	l.m["mp.tcp.connect_ms"] = medianOf(5, func() float64 {
		p, connectS, err := tcpPair()
		if err != nil {
			l.fail(err)
			return 0
		}
		p.close()
		return connectS * 1e3
	})
	if p, _, err := tcpPair(); err != nil {
		l.fail(err)
	} else {
		measure("mp.tcp", p)
	}
}

// obs measures the observer (ROADMAP 4(d)): the start-up-bound geometry
// on a bare Comm against the same run through obs.InstrumentComm.
func (l *ladder) obs() {
	cfg := fineGeom.config(runner.Overlapped)
	var bare, inst []float64
	for i := 0; i < 5; i++ {
		d, err := inprocRun(cfg, nil, nil)
		l.fail(err)
		bare = append(bare, d)
		d, err = inprocRun(cfg, func(c mp.Comm) mp.Comm {
			return obs.InstrumentComm(c, obs.NewCommMetrics(c.Rank(), c.Size()))
		}, nil)
		l.fail(err)
		inst = append(inst, d)
	}
	l.m["obs.comm_overhead_pct"] = 100 * (median(inst)/median(bare) - 1)
}

var fig9Grid = experiments.Fig9().Grid

func (l *ladder) model() {
	m := model.PentiumCluster()
	const n = 20000
	var sink float64
	l.m["model.predict_ns"] = medianOf(3, func() float64 {
		return timed(func() {
			for i := 0; i < n; i++ {
				v, _, err := fig9Grid.OptimalVOverlapAnalytic(m)
				l.fail(err)
				sink += fig9Grid.PredictOverlap(int64(v), m)
			}
		}) * 1e9 / n
	})
	_ = sink
}

func (l *ladder) sim(ctx context.Context) {
	m := model.PentiumCluster()
	const v = 444
	cfg, err := sim.GridConfig(fig9Grid, v, m, sim.Overlapped, sim.CapDMA)
	if err != nil {
		l.fail(err)
		return
	}
	simS := medianOf(5, func() float64 { return timed(func() { _, err := sim.Simulate(cfg); l.fail(err) }) })
	var acts int
	buildS := medianOf(5, func() float64 {
		return timed(func() { acts, _, err = sim.BuildStats(cfg); l.fail(err) })
	})
	l.m["sim.simulate_ms"] = simS * 1e3
	l.m["sim.build_activities_per_s"] = float64(acts) / buildS
	if engineS := simS - buildS; engineS > 0 {
		l.m["simnet.activities_per_s"] = float64(acts) / engineS
	}
	n, _ := mallocs(func() { _, err := sim.Simulate(cfg); l.fail(err) })
	l.m["sim.allocs_per_tile"] = n / float64(fig9Grid.PI*fig9Grid.PJ*fig9Grid.KTiles(v))

	// The cache, on a grid small enough that a miss is mostly the cache's
	// own work (hash, in-flight registration, insert, eviction) and the
	// DES evaluation a minimal one. Distinct tile heights are distinct keys.
	tiny := model.Grid3D{I: 2, J: 2, K: 1024, PI: 1, PJ: 1}
	lookup := func(c *sim.Cache, v int64) {
		_, err := c.SimulateGridCtx(ctx, tiny, v, m, sim.Overlapped, sim.CapDMA, sim.GridOpts{})
		l.fail(err)
	}
	const keys = 512
	c := sim.NewCache()
	l.m["sim.cache.miss_insert_ns"] = timed(func() {
		for v := int64(1); v <= keys; v++ {
			lookup(c, 1024-v)
		}
	}) * 1e9 / keys
	const hits = 200000
	l.m["sim.cache.hit_ns"] = medianOf(3, func() float64 {
		return timed(func() {
			for i := int64(0); i < hits; i++ {
				lookup(c, 1024-1-i%keys)
			}
		}) * 1e9 / hits
	})
	bounded := sim.NewCacheBounded(256)
	for v := int64(1); v <= 256; v++ {
		lookup(bounded, 1024-v)
	}
	l.m["sim.cache.evict_ns"] = timed(func() {
		for v := int64(257); v <= 256+keys; v++ {
			lookup(bounded, 1024-v)
		}
	}) * 1e9 / keys
}

// tracedOptimum answers q the way tileserve's handler does, through the
// public pieces: estimate.ForGrid wired to the request's sweep and cache,
// then estimate.Optimum. wrapCfg, if not nil, may decorate the config's
// Probe and Model before the search runs (the traced pass records spans
// there).
func tracedOptimum(ctx context.Context, q planapi.PlanRequest, c *sim.Cache, wrapCfg func(*estimate.Config)) (estimate.Outcome, error) {
	sw, err := q.Sweep()
	if err != nil {
		return estimate.Outcome{}, err
	}
	sw.Cache = c
	mode, err := q.SimMode()
	if err != nil {
		return estimate.Outcome{}, err
	}
	cfg := estimate.ForGrid(ctx, sw.Grid, sw.Machine, mode, sw.ModeCap(mode), c, sw.OptimumHeights())
	cfg.Exact = func() (int64, float64, error) { return sw.OptimumExactCtx(ctx, mode) }
	if wrapCfg != nil {
		wrapCfg(&cfg)
	}
	return estimate.Optimum(ctx, cfg)
}

func (l *ladder) estimate(ctx context.Context, reqs []planapi.PlanRequest) {
	c := sim.NewCache()
	var ms []float64
	certified := 0
	for _, q := range reqs {
		var out estimate.Outcome
		ms = append(ms, 1e3*timed(func() {
			var err error
			out, err = tracedOptimum(ctx, q, c, nil)
			l.fail(err)
		}))
		if out.Tier == estimate.TierCertified {
			certified++
		}
	}
	l.m["estimate.optimum_ms"] = median(ms)
	l.m["estimate.des_evals_per_query"] = float64(c.Stats().Evals) / float64(len(reqs))
	l.m["estimate.certified_share"] = float64(certified) / float64(len(reqs))

	sw := experiments.Fig9()
	sw.Cache = sim.NewCache()
	l.m["experiments.fig9_sweep_s"] = timed(func() { _, err := sw.RunCtx(ctx); l.fail(err) })
}

func (l *ladder) planapi(q planapi.PlanRequest) {
	body, err := encodeRequests([]planapi.PlanRequest{q})
	if err != nil {
		l.fail(err)
		return
	}
	res := planapi.PlanResult{Version: planapi.Version, Mode: "overlapped", V: 512, G: 12800,
		TSeconds: 0.26219925000000044, Tier: "certified", Probes: 3, SeedV: 431.7}
	const n = 5000
	l.m["planapi.decode_us"] = medianOf(3, func() float64 {
		return timed(func() {
			for i := 0; i < n; i++ {
				_, err := planapi.DecodeRequest(bytes.NewReader(body[0]))
				l.fail(err)
			}
		}) * 1e6 / n
	})
	var buf bytes.Buffer
	l.m["planapi.encode_us"] = medianOf(3, func() float64 {
		return timed(func() {
			for i := 0; i < n; i++ {
				buf.Reset()
				l.fail(planapi.EncodeResult(&buf, res))
			}
		}) * 1e6 / n
	})
	keyLen := 0
	l.m["planapi.key_ns"] = medianOf(3, func() float64 {
		return timed(func() {
			for i := 0; i < n; i++ {
				keyLen += len(q.Key())
			}
		}) * 1e9 / n
	})
	if keyLen == 0 {
		l.fail(fmt.Errorf("planapi: empty key"))
	}
}
