package experiments

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// sequential is the reference every pooled evaluation is held to: the
// points simulated one after another with the uncached sim.SimulateGrid,
// no worker pool, no cache.
func sequential(m model.Machine, pts []point) ([]sim.Result, error) {
	res := make([]sim.Result, len(pts))
	for i, p := range pts {
		r, err := sim.SimulateGrid(p.g, p.v, m, p.mode, p.cap, p.o)
		if err != nil {
			return nil, err
		}
		res[i] = r
	}
	return res, nil
}

// runSequential is a sweep's rows computed from the sequential reference.
func runSequential(s Sweep) ([]SweepRow, error) {
	res, err := sequential(s.Machine, s.points())
	if err != nil {
		return nil, err
	}
	return s.rows(res), nil
}

// TestOneSimulatePath keeps the package on one evaluation path: every call
// that runs the simulator must sit inside a function literal passed to
// evalAll, so every experiment runs on the one worker pool under its
// caller's context. The receiver is not resolved, so any method of these
// names counts (Grid2D.Simulate and Plan.Simulate included).
func TestOneSimulatePath(t *testing.T) {
	simulates := map[string]bool{
		"SimulateGridCtx": true, "SimulateGrid": true, "Simulate": true, "SimulateOne": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pooled := map[string]int{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var lits []*ast.FuncLit // function literals passed to evalAll
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "evalAll" {
					for _, arg := range call.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							lits = append(lits, lit)
						}
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !simulates[sel.Sel.Name] {
				return true
			}
			for _, lit := range lits {
				if lit.Pos() <= call.Pos() && call.End() <= lit.End() {
					pooled[sel.Sel.Name]++
					return true
				}
			}
			t.Errorf("%s: %s called outside a function literal passed to evalAll",
				fset.Position(call.Pos()), sel.Sel.Name)
			return true
		})
	}
	// The grid path and both named exceptions must be found, or the scan
	// has stopped seeing the code it guards.
	for _, name := range []string{"SimulateGridCtx", "SimulateOne", "Simulate"} {
		if pooled[name] == 0 {
			t.Errorf("no pooled %s call found", name)
		}
	}
}

// TestRunParallelMatchesSequential is the oracle test of the one grid
// path: for every grid-point experiment, evalGrid on a fresh cache must
// return results deep-equal (bit-identical floats and phase reports
// included) to the sequential reference over the same points, regardless
// of worker scheduling.
func TestRunParallelMatchesSequential(t *testing.T) {
	metrics := func(s Sweep) Sweep {
		s.Metrics = true
		return s
	}
	scale := DefaultScaleSweep()
	scale.Points = []ScalePoint{{PI: 8, PJ: 8}, {PI: 16, PJ: 16}, {PI: 32, PJ: 32}} // tilebench -quick
	if raceDetectorEnabled {
		scale = tinyScale() // thousand-rank DES is prohibitively slow under the race detector
	}
	grid := model.Grid3D{I: 16, J: 16, K: 512, PI: 4, PJ: 4} // the ablations' -quick space
	capAbl := CapabilityAblation{Grid: grid, V: 32, Machine: model.PentiumCluster()}
	netAbl := NetworkAblation{Grid: grid, V: 32, Machine: model.PentiumCluster()}
	netAbl.Machine.Tt = 0.8e-6
	fault, recovery := smallFaultSweep(), testRecoverySweep()

	// min is the fewest points a case may lay out: a shrunk figure sweep
	// keeps at least three heights, two schedules each, and the fixed
	// experiments lay out every point they report. An empty list would
	// compare equal and pass on nothing.
	cases := []struct {
		name string
		m    model.Machine
		pts  []point
		min  int
	}{
		{"fig9", Fig9().Machine, shrinkSweep(Fig9(), 64).points(), 6},
		{"fig10", Fig10().Machine, shrinkSweep(Fig10(), 128).points(), 6},
		{"fig11", Fig11().Machine, shrinkSweep(Fig11(), 16).points(), 6},
		{"fig9-metrics", Fig9().Machine, metrics(shrinkSweep(Fig9(), 64)).points(), 6},
		{"fig10-metrics", Fig10().Machine, metrics(shrinkSweep(Fig10(), 128)).points(), 6},
		{"fig11-metrics", Fig11().Machine, metrics(shrinkSweep(Fig11(), 16)).points(), 6},
		{"fault-sweep", fault.Machine, fault.points(), 2 * (1 + len(fault.Intensities))},
		{"recovery-sweep", recovery.Machine, recovery.points(), 1 + len(recovery.Intensities)},
		{"scale-sweep", scale.Machine, scale.points(), 2 * len(scale.Points)},
		{"ablation-cap", capAbl.Machine, capAbl.points(), 4},
		{"ablation-net", netAbl.Machine, netAbl.points(), 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if len(tc.pts) < tc.min {
				t.Fatalf("%d points laid out, want at least %d", len(tc.pts), tc.min)
			}
			par, err := evalGrid(context.Background(), sim.NewCache(), tc.name, tc.m, tc.pts)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := sequential(tc.m, tc.pts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(par, seq) {
				t.Errorf("pooled results differ from the sequential reference over %d points", len(tc.pts))
			}
		})
	}
}
