package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/sim"
)

// Sweep is one completion-time-vs-tile-height experiment (one figure).
type Sweep struct {
	ID      string
	Title   string
	Grid    model.Grid3D
	Heights []int64
	Machine model.Machine
	Cap     sim.Capability
	// Cache optionally memoizes simulation points across RunCtx and Optimum
	// calls on the same sweep (the Optimum ladder pass revisits every RunCtx
	// height, and its refinement rungs overlap the ladder). When nil, each
	// call uses a private cache, which still deduplicates within the call.
	Cache *sim.Cache
	// Metrics enables the phase-accounting pass on every simulated point and
	// fills the OverlapEff/BlockingEff columns of the rows. Off by default:
	// the pass costs an interval log per simulation.
	Metrics bool
	// Exact forces every Optimum query onto the exact tier, skipping the
	// analytic fast path (the CLIs expose it as -exact): every rung that
	// can win is simulated. The tiered search returns the same heights —
	// the fallback guarantees it when certification fails — so this is an
	// escape hatch for auditing, not a correctness knob.
	Exact bool
}

// cacheOr returns a sweep's shared cache c, or a fresh private one when c
// is nil.
func cacheOr(c *sim.Cache) *sim.Cache {
	if c != nil {
		return c
	}
	return sim.NewCache()
}

// ModeCap returns the hardware capability each schedule is simulated with:
// the sweep's capability for the overlapped schedule, no DMA for blocking
// (the blocking schedule burns CPU for every copy regardless).
func (s Sweep) ModeCap(mode sim.Mode) sim.Capability {
	if mode == sim.Blocking {
		return sim.CapNone
	}
	return s.Cap
}

// SweepRow is one point of a sweep.
type SweepRow struct {
	V             int64
	G             int64
	OverlapSim    float64
	BlockingSim   float64
	OverlapModel  float64
	BlockingModel float64
	// Mean CPU utilization across the cluster, per schedule — the paper's
	// Section 4 argues the overlapped schedule approaches full utilization
	// at the right grain.
	OverlapCPUUtil  float64
	BlockingCPUUtil float64
	// Overlap efficiency (hidden-comm-time / total-comm-time, see
	// obs.Report) per schedule. Zero unless Sweep.Metrics is set.
	OverlapEff  float64
	BlockingEff float64
}

// Ladder returns a geometric ladder of tile heights from lo to hi
// (inclusive-ish), the sweep grid the figures use. A lo below 1 is clamped
// to 1 (a non-positive start would never double its way past hi), and an
// empty range returns nil.
func Ladder(lo, hi int64) []int64 {
	if lo < 1 {
		lo = 1
	}
	var vs []int64
	for v := lo; v <= hi; v *= 2 {
		vs = append(vs, v)
	}
	return vs
}

// Refine returns ~n heights spread multiplicatively around center within
// [lo, hi], for zooming into an optimum. The emitted list is strictly
// increasing: clamping and integer rounding collapse overlapping rungs, so
// duplicates are dropped and the merged list is sorted before returning —
// otherwise the optimum search would simulate the same height repeatedly.
// A degenerate bracket (hi < lo) yields nil; lo == hi yields exactly that
// height.
func Refine(center, lo, hi int64, n int) []int64 {
	if lo < 1 {
		lo = 1 // tile heights start at 1
	}
	if hi < lo {
		return nil
	}
	if n < 2 {
		n = 2
	}
	seen := map[int64]bool{}
	var vs []int64
	for i := 0; i < n; i++ {
		f := 0.5 + float64(i)/float64(n-1) // 0.5x .. 1.5x
		v := int64(float64(center) * f)
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		if !seen[v] {
			seen[v] = true
			vs = append(vs, v)
		}
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// Fig9 is the 16×16×16384 sweep.
func Fig9() Sweep {
	g := model.Grid3D{I: 16, J: 16, K: 16384, PI: 4, PJ: 4}
	return Sweep{
		ID: "fig9", Title: "Results for 16x16x16384 space",
		Grid: g, Heights: Ladder(4, g.K/4),
		Machine: model.PentiumCluster(), Cap: sim.CapDMA,
	}
}

// Fig10 is the 16×16×32768 sweep.
func Fig10() Sweep {
	g := model.Grid3D{I: 16, J: 16, K: 32768, PI: 4, PJ: 4}
	return Sweep{
		ID: "fig10", Title: "Results for 16x16x32768 space",
		Grid: g, Heights: Ladder(4, g.K/4),
		Machine: model.PentiumCluster(), Cap: sim.CapDMA,
	}
}

// Fig11 is the 32×32×4096 sweep.
func Fig11() Sweep {
	g := model.Grid3D{I: 32, J: 32, K: 4096, PI: 4, PJ: 4}
	return Sweep{
		ID: "fig11", Title: "Results for 32x32x4096 space",
		Grid: g, Heights: Ladder(4, g.K/4),
		Machine: model.PentiumCluster(), Cap: sim.CapDMA,
	}
}

// point is one grid simulation of an experiment: a (grid, tile height,
// schedule) run under a hardware capability and the simulator options.
// Every grid experiment lays its work out as a point list for evalGrid.
type point struct {
	g    model.Grid3D
	v    int64
	mode sim.Mode
	cap  sim.Capability
	o    sim.GridOpts
}

// pair returns the overlapped point at (g, v) with capability cap and the
// blocking point beside it, whose capability ModeCap decides.
func pair(g model.Grid3D, v int64, cap sim.Capability, o sim.GridOpts) []point {
	return []point{{g, v, sim.Overlapped, cap, o}, {g, v, sim.Blocking, Sweep{Cap: cap}.ModeCap(sim.Blocking), o}}
}

// evalAll runs eval(ctx, i) for every i in [0, n) on a bounded pool of
// GOMAXPROCS workers and returns the results in input order, so the output
// is identical regardless of worker scheduling (the simulator itself is
// deterministic). The first error — or cancellation of the parent context —
// stops the remaining work promptly: no worker starts an evaluation under a
// dead context, so the granularity is one DES evaluation. A worker asks the
// parent itself before every point, because the pool's own context learns
// of a parent's cancellation by propagation, which for a context type
// outside the standard library runs on a goroutine that may not be
// scheduled while the workers are busy. It is the one worker pool behind
// every experiment; evalGrid is its grid front end. A one-point batch (the
// exact tier's incumbent, often its only kept rung) runs on the caller's
// goroutine under the parent itself: a pool and a derived context would
// cost more than a cache hit, and one point has nothing to stop early.
func evalAll(parent context.Context, n int, eval func(ctx context.Context, i int) (sim.Result, error)) ([]sim.Result, error) {
	if n == 1 {
		if err := parent.Err(); err != nil {
			return nil, err
		}
		r, err := eval(parent, 0)
		if perr := parent.Err(); perr != nil {
			return nil, perr
		}
		if err != nil {
			return nil, err
		}
		return []sim.Result{r}, nil
	}
	res := make([]sim.Result, n)
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	var (
		wg       sync.WaitGroup
		next     atomic.Int64 // the next index to evaluate
		errOnce  sync.Once
		firstErr error
	)
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n && ctx.Err() == nil && parent.Err() == nil; i = int(next.Add(1)) - 1 {
				r, err := eval(ctx, i)
				if err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancel()
					})
					return
				}
				res[i] = r
			}
		}()
	}
	wg.Wait()
	// A parent cancellation surfaces as the bare context error, not wrapped
	// in whichever point happened to observe it first.
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}

// evalGrid simulates every point through the cache c (a private one when c
// is nil) on the evalAll pool and returns the results in point order. It is
// how every grid experiment reaches the simulator; an error names the
// experiment id and the failing point.
func evalGrid(ctx context.Context, c *sim.Cache, id string, m model.Machine, pts []point) ([]sim.Result, error) {
	c = cacheOr(c)
	return evalAll(ctx, len(pts), func(ctx context.Context, i int) (sim.Result, error) {
		p := pts[i]
		r, err := c.SimulateGridCtx(ctx, p.g, p.v, m, p.mode, p.cap, p.o)
		if err != nil {
			return r, fmt.Errorf("%s: %dx%dx%d on %dx%d, V=%d %s: %w",
				id, p.g.I, p.g.J, p.g.K, p.g.PI, p.g.PJ, p.v, p.mode, err)
		}
		return r, nil
	})
}

// points lays out the sweep: an (overlapped, blocking) pair per height.
func (s Sweep) points() []point {
	o := sim.GridOpts{Metrics: s.Metrics}
	pts := make([]point, 0, 2*len(s.Heights))
	for _, v := range s.Heights {
		pts = append(pts, pair(s.Grid, v, s.Cap, o)...)
	}
	return pts
}

// rows assembles one SweepRow per height from results laid out by points.
func (s Sweep) rows(res []sim.Result) []SweepRow {
	rows := make([]SweepRow, len(s.Heights))
	for i, v := range s.Heights {
		ov, bl := res[2*i], res[2*i+1]
		r := SweepRow{
			V:               v,
			G:               s.Grid.TileVolume(v),
			OverlapSim:      ov.Makespan,
			BlockingSim:     bl.Makespan,
			OverlapModel:    s.Grid.PredictOverlap(v, s.Machine),
			BlockingModel:   s.Grid.PredictNonOverlap(v, s.Machine),
			OverlapCPUUtil:  ov.CPUUtilization,
			BlockingCPUUtil: bl.CPUUtilization,
		}
		if ov.Obs != nil {
			r.OverlapEff = ov.Obs.OverlapEfficiency
		}
		if bl.Obs != nil {
			r.BlockingEff = bl.Obs.OverlapEfficiency
		}
		rows[i] = r
	}
	return rows
}

// RunCtx evaluates the sweep: simulated and analytic completion times for
// both schedules at every height, in height order. Cancellation or an
// expired deadline stops the sweep at DES-evaluation granularity and
// returns ctx.Err(). Points already simulated stay in the sweep's cache,
// so a later uncancelled run completes from where the cancelled one
// stopped, bit-identically.
func (s Sweep) RunCtx(ctx context.Context) ([]SweepRow, error) {
	res, err := evalGrid(ctx, s.Cache, s.ID, s.Machine, s.points())
	if err != nil {
		return nil, err
	}
	return s.rows(res), nil
}

// Format renders the sweep as an aligned text table. Sweeps run with Metrics
// get two extra columns: the overlap efficiency of each schedule.
func Format(s Sweep, rows []SweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", s.Title, s.ID)
	fmt.Fprintf(&b, "%8s %10s %14s %14s %14s %14s %8s %8s",
		"V", "g", "overlap(sim)", "blocking(sim)", "overlap(model)", "blocking(mod)", "ovCPU%", "blCPU%")
	if s.Metrics {
		fmt.Fprintf(&b, " %8s %8s", "ovEff%", "blEff%")
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %10d %14.6f %14.6f %14.6f %14.6f %7.0f%% %7.0f%%",
			r.V, r.G, r.OverlapSim, r.BlockingSim, r.OverlapModel, r.BlockingModel,
			100*r.OverlapCPUUtil, 100*r.BlockingCPUUtil)
		if s.Metrics {
			fmt.Fprintf(&b, " %7.1f%% %7.1f%%", 100*r.OverlapEff, 100*r.BlockingEff)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV writes the sweep rows as comma-separated values with a header, for
// external plotting of the figures. The overlap-efficiency columns are always
// present and hold zeros when the sweep ran without Metrics.
func CSV(w io.Writer, rows []SweepRow) error {
	if _, err := fmt.Fprintln(w, "v,g,overlap_sim_s,blocking_sim_s,overlap_model_s,blocking_model_s,overlap_eff,blocking_eff"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%d,%d,%.9g,%.9g,%.9g,%.9g,%.6g,%.6g\n",
			r.V, r.G, r.OverlapSim, r.BlockingSim, r.OverlapModel, r.BlockingModel,
			r.OverlapEff, r.BlockingEff); err != nil {
			return err
		}
	}
	return nil
}

// ShapeReport is the programmatic verdict on whether a sweep reproduces the
// paper's qualitative results.
type ShapeReport struct {
	OverlapAlwaysWins bool  // overlapped below blocking at every height
	UShapedOverlap    bool  // interior optimum for the overlapped curve
	UShapedBlocking   bool  // interior optimum for the blocking curve
	VOptOverlap       int64 // height of the overlapped minimum in the rows
	VOptBlocking      int64
	ImprovementPct    float64 // at the respective minima
}

// OK reports whether every qualitative property holds.
func (r ShapeReport) OK() bool {
	return r.OverlapAlwaysWins && r.UShapedOverlap && r.UShapedBlocking && r.ImprovementPct > 0
}

// CheckShape evaluates the paper's qualitative claims on a completed sweep:
// the overlapped schedule wins everywhere, both curves are U-shaped
// (strictly worse at the sweep's endpoints than at the interior optimum),
// and the improvement at the optima is positive.
func CheckShape(rows []SweepRow) (ShapeReport, error) {
	if len(rows) < 3 {
		return ShapeReport{}, fmt.Errorf("experiments: need at least 3 sweep rows, got %d", len(rows))
	}
	rep := ShapeReport{OverlapAlwaysWins: true}
	ovBest, blBest := 0, 0
	for i, r := range rows {
		if r.OverlapSim >= r.BlockingSim {
			rep.OverlapAlwaysWins = false
		}
		if r.OverlapSim < rows[ovBest].OverlapSim {
			ovBest = i
		}
		if r.BlockingSim < rows[blBest].BlockingSim {
			blBest = i
		}
	}
	last := len(rows) - 1
	rep.UShapedOverlap = ovBest > 0 && ovBest < last &&
		rows[0].OverlapSim > rows[ovBest].OverlapSim && rows[last].OverlapSim > rows[ovBest].OverlapSim
	rep.UShapedBlocking = blBest > 0 && blBest < last &&
		rows[0].BlockingSim > rows[blBest].BlockingSim && rows[last].BlockingSim > rows[blBest].BlockingSim
	rep.VOptOverlap = rows[ovBest].V
	rep.VOptBlocking = rows[blBest].V
	rep.ImprovementPct = 100 * (1 - rows[ovBest].OverlapSim/rows[blBest].BlockingSim)
	return rep, nil
}
