package runner

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ilmath"
	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stencil"
)

// byteMachine prices a message's MPI buffer fill at one second per byte
// and everything else at nearly nothing, so a traced overlapped simulation
// reads each message's size off its isend and irecv activities.
var byteMachine = model.Machine{Tc: 1e-9, BytesPerElem: 8, FillMPIPerByte: 1}

// traffic is one rank's point-to-point messages and bytes, each way.
type traffic struct{ sendMsgs, sendBytes, recvMsgs, recvBytes int64 }

// desTraffic runs the simulation traced and tallies, per rank, the isend
// activities on its CPU as sends and the irecv activities as receives.
func desTraffic(t *testing.T, simulate func() (sim.Result, error)) map[int]traffic {
	t.Helper()
	r, err := simulate()
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]traffic{}
	for _, e := range r.Trace {
		rank, err := strconv.Atoi(strings.TrimPrefix(e.Resource, "cpu"))
		if err != nil {
			continue // a comm channel
		}
		bytes := int64(math.Round(e.End - e.Start))
		tr := out[rank]
		switch {
		case strings.HasPrefix(e.Label, "isend"):
			tr.sendMsgs++
			tr.sendBytes += bytes
		case strings.HasPrefix(e.Label, "irecv"):
			tr.recvMsgs++
			tr.recvBytes += bytes
		}
		out[rank] = tr
	}
	return out
}

// compareTraffic holds the simulated traffic of every rank to what the
// transport measured on the real run.
func compareTraffic(t *testing.T, where string, des map[int]traffic, run func(mp.Comm) (Stats, error), ranks int) {
	t.Helper()
	for r, s := range measuredTraffic(t, ranks, run) {
		got := traffic{s.SendMsgs, s.SendBytes, s.RecvMsgs, s.RecvBytes}
		if des[r] != got {
			t.Errorf("%s: rank %d: simulated %+v, the runner measured %+v", where, r, des[r], got)
		}
	}
}

// TestSimulatedTrafficMatchesRunner is the differential test of the one
// message model: on every geometry, each rank's messages and bytes in the
// discrete-event simulation equal what the real executor sends and
// receives. The 2-D strips are simulated through core.Plan (Example 1's
// dependences, the diagonal folded into the face message), the 3-D grids
// through sim.GridConfig.
func TestSimulatedTrafficMatchesRunner(t *testing.T) {
	for _, c := range []struct{ i1, i2, s1, strips int64 }{
		{40, 12, 10, 2}, // S1 divides I1
		{47, 12, 10, 3}, // a partial last tile of 7 rows
		{33, 20, 4, 5},
		{30, 24, 7, 6},
		{25, 16, 25, 4}, // one tile per strip
	} {
		where := fmt.Sprintf("2-D %dx%d, S1=%d, %d strips", c.i1, c.i2, c.s1, c.strips)
		p, err := core.NewProblem(space.MustRect(c.i1, c.i2), stencil.Sum2D{}.Deps())
		if err != nil {
			t.Fatal(err)
		}
		mapDim := 0
		plan, err := p.Plan(byteMachine, core.PlanOptions{TileSides: ilmath.V(c.s1, c.i2/c.strips), MapDim: &mapDim})
		if err != nil {
			t.Fatal(err)
		}
		des := desTraffic(t, func() (sim.Result, error) { return plan.SimulateOne(sim.Overlapped, sim.CapDMA, true) })
		cfg := Config2D{I1: c.i1, I2: c.i2, S1: c.s1, Kernel: stencil.Sum2D{}, Mode: Overlapped}
		compareTraffic(t, where, des, func(cm mp.Comm) (Stats, error) {
			_, st, err := Run2D(cm, cfg)
			return st, err
		}, int(c.strips))
	}

	for _, c := range []struct {
		g model.Grid3D
		v int64
	}{
		{model.Grid3D{I: 4, J: 6, K: 32, PI: 1, PJ: 2}, 8}, // V divides K
		{model.Grid3D{I: 6, J: 4, K: 30, PI: 2, PJ: 1}, 8}, // a partial last tile
		{model.Grid3D{I: 6, J: 6, K: 24, PI: 2, PJ: 2}, 6},
		{model.Grid3D{I: 4, J: 8, K: 21, PI: 2, PJ: 2}, 5},
		{model.Grid3D{I: 9, J: 6, K: 40, PI: 3, PJ: 3}, 8},
		{model.Grid3D{I: 12, J: 9, K: 37, PI: 3, PJ: 3}, 10},
	} {
		where := fmt.Sprintf("3-D %+v, V=%d", c.g, c.v)
		cfg, err := sim.GridConfig(c.g, c.v, byteMachine, sim.Overlapped, sim.CapDMA)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Trace = true
		des := desTraffic(t, func() (sim.Result, error) { return sim.Simulate(cfg) })
		rcfg := Config{Grid: c.g, V: c.v, Kernel: stencil.Sqrt3D{}, Mode: Overlapped}
		compareTraffic(t, where, des, func(cm mp.Comm) (Stats, error) {
			_, st, err := Run(cm, rcfg)
			return st, err
		}, int(c.g.PI*c.g.PJ))
	}
}
