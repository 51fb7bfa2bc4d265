package planapi

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/sim"
)

// Version is the wire version this package speaks. Requests must carry it
// verbatim; anything else is rejected so a future v2 can change semantics
// without silently misreading v1 clients.
const Version = 1

// Request-validation bounds. These exist to cap the simulator work and
// memory one admitted request can demand — the DES cost of a point is
// dominated by its tile count, and the optimum ladder reaches down to
// height 1, where the tile count is PI·PJ·K.
const (
	// MaxBodyBytes bounds a request body; a valid v1 request is well under
	// 1 KiB, so anything larger is noise or abuse.
	MaxBodyBytes = 64 << 10
	// MaxExtentIJ bounds the I and J space extents.
	MaxExtentIJ = 1 << 12
	// MaxExtentK bounds the K (tiling) extent.
	MaxExtentK = 1 << 20
	// MaxProcs bounds the processor grid size PI·PJ.
	MaxProcs = 1 << 8
	// MaxWorstCaseTiles bounds PI·PJ·K — the tile count of the worst rung
	// (height 1) the optimum ladder can ask the simulator for.
	MaxWorstCaseTiles = 1 << 22
	// MaxTenantLen bounds the advisory tenant label.
	MaxTenantLen = 64
)

// PlanRequest is one optimum-tile-height query: the paper's "which g
// minimizes completion time" question for a 3-D rectangular space on a
// PI×PJ processor grid. The zero value is invalid; requests are built by
// clients and checked with Validate (DecodeRequest does both).
type PlanRequest struct {
	// Version must equal Version.
	Version int `json:"version"`
	// Space is the iteration-space extents [I, J, K].
	Space []int64 `json:"space"`
	// Procs is the processor grid [PI, PJ]. PI must divide I and PJ divide J.
	Procs []int64 `json:"procs"`
	// Machine names the machine model: "example1" or "pentium" (default
	// "pentium", the paper's calibrated testbed).
	Machine string `json:"machine,omitempty"`
	// Mode selects the schedule: "overlapped" (default) or "blocking".
	Mode string `json:"mode,omitempty"`
	// Exact forces the exact tier, skipping the analytic fast path —
	// the audit escape hatch, same as `tileplan -optimum -exact`.
	Exact bool `json:"exact,omitempty"`
	// Tenant is an advisory label for per-tenant accounting; it never
	// changes the answer. Restricted to [A-Za-z0-9._-].
	Tenant string `json:"tenant,omitempty"`
}

// PlanResult is the answer to a PlanRequest.
type PlanResult struct {
	Version int    `json:"version"`
	Mode    string `json:"mode"`
	// V is the optimal tile height, G the tile volume at that height, and
	// TSeconds its simulated completion time.
	V        int64   `json:"v"`
	G        int64   `json:"g"`
	TSeconds float64 `json:"t_seconds"`
	// Tier, Probes and FallbackReason are the tiered search's provenance:
	// which tier answered, how many DES probes the tiered stage issued, and
	// why the exact tier ran if it did.
	Tier           string `json:"tier"`
	Probes         int    `json:"probes"`
	FallbackReason string `json:"fallback_reason,omitempty"`
	// SeedV is the analytic closed-form optimum that seeded the search
	// (0 when the closed form has no solution).
	SeedV float64 `json:"seed_v,omitempty"`
}

// DecodeRequest reads exactly one JSON-encoded PlanRequest from r,
// rejecting unknown fields, trailing data, bodies over MaxBodyBytes, and
// anything Validate rejects. It never reads more than MaxBodyBytes+1 bytes
// regardless of what the stream offers.
func DecodeRequest(r io.Reader) (PlanRequest, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxBodyBytes+1))
	dec.DisallowUnknownFields()
	var q PlanRequest
	if err := dec.Decode(&q); err != nil {
		return PlanRequest{}, fmt.Errorf("planapi: decode: %w", err)
	}
	if dec.More() {
		return PlanRequest{}, fmt.Errorf("planapi: trailing data after request body")
	}
	if err := q.Validate(); err != nil {
		return PlanRequest{}, err
	}
	return q, nil
}

// Validate checks every v1 invariant: version, shape, positivity,
// divisibility, the work bounds, and the enum fields. A request that
// passes resolves to a simulatable grid within the documented limits.
func (q PlanRequest) Validate() error {
	if q.Version != Version {
		return fmt.Errorf("planapi: version %d not supported (want %d)", q.Version, Version)
	}
	if len(q.Space) != 3 {
		return fmt.Errorf("planapi: space must be [I, J, K], got %d extents", len(q.Space))
	}
	if len(q.Procs) != 2 {
		return fmt.Errorf("planapi: procs must be [PI, PJ], got %d extents", len(q.Procs))
	}
	i, j, k := q.Space[0], q.Space[1], q.Space[2]
	pi, pj := q.Procs[0], q.Procs[1]
	if i > MaxExtentIJ || j > MaxExtentIJ {
		return fmt.Errorf("planapi: space extent %dx%d exceeds the %d limit", i, j, MaxExtentIJ)
	}
	if k > MaxExtentK {
		return fmt.Errorf("planapi: K=%d exceeds the %d limit", k, MaxExtentK)
	}
	if pi <= 0 || pj <= 0 || pi*pj > MaxProcs {
		return fmt.Errorf("planapi: processor grid %dx%d outside (0, %d] processors", pi, pj, MaxProcs)
	}
	if _, err := q.Grid(); err != nil {
		return err
	}
	if worst := pi * pj * k; worst > MaxWorstCaseTiles {
		return fmt.Errorf("planapi: worst-case tile count PI*PJ*K = %d exceeds the %d limit", worst, MaxWorstCaseTiles)
	}
	if _, err := q.SimMode(); err != nil {
		return err
	}
	if _, err := q.MachineModel(); err != nil {
		return err
	}
	if len(q.Tenant) > MaxTenantLen {
		return fmt.Errorf("planapi: tenant label longer than %d bytes", MaxTenantLen)
	}
	for _, c := range []byte(q.Tenant) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("planapi: tenant label contains %q (want [A-Za-z0-9._-])", c)
		}
	}
	return nil
}

// Grid resolves the request's space/procs to a model.Grid3D, applying the
// model-level divisibility and positivity checks.
func (q PlanRequest) Grid() (model.Grid3D, error) {
	if len(q.Space) != 3 || len(q.Procs) != 2 {
		return model.Grid3D{}, fmt.Errorf("planapi: malformed space/procs")
	}
	g := model.Grid3D{
		I: q.Space[0], J: q.Space[1], K: q.Space[2],
		PI: q.Procs[0], PJ: q.Procs[1],
	}
	if err := g.Validate(); err != nil {
		return model.Grid3D{}, fmt.Errorf("planapi: %w", err)
	}
	return g, nil
}

// SimMode resolves the schedule name ("" defaults to overlapped).
func (q PlanRequest) SimMode() (sim.Mode, error) {
	switch q.Mode {
	case "", "overlapped":
		return sim.Overlapped, nil
	case "blocking":
		return sim.Blocking, nil
	default:
		return 0, fmt.Errorf("planapi: unknown mode %q (want overlapped or blocking)", q.Mode)
	}
}

// MachineModel resolves the machine name ("" defaults to pentium, the
// paper's calibrated cluster).
func (q PlanRequest) MachineModel() (model.Machine, error) {
	name := q.Machine
	if name == "" {
		name = "pentium"
	}
	m, err := model.NamedMachine(name)
	if err != nil {
		return model.Machine{}, fmt.Errorf("planapi: %w", err)
	}
	return m, nil
}

// Key returns the request's answer-determining identity: two requests with
// equal keys have bit-identical answers (Tenant is excluded — it is
// accounting metadata). The planning service coalesces concurrent
// identical requests on this key.
func (q PlanRequest) Key() string {
	mode := q.Mode
	if mode == "" {
		mode = "overlapped"
	}
	machine := q.Machine
	if machine == "" {
		machine = "pentium"
	}
	return fmt.Sprintf("v%d|%dx%dx%d|%dx%d|%s|%s|exact=%t",
		q.Version, q.Space[0], q.Space[1], q.Space[2], q.Procs[0], q.Procs[1],
		machine, mode, q.Exact)
}

// Sweep builds the experiments.Sweep answering this request: the height
// ladder, the capability and the Exact flag of the one optimum query.
// `tileplan -optimum` builds its offline query here too and swaps in its
// own machine, so a served answer is bit-identical to the CLI's. Sweep
// checks the grid, not Validate's request limits. The caller attaches a
// sim.Cache before running.
func (q PlanRequest) Sweep() (experiments.Sweep, error) {
	g, err := q.Grid()
	if err != nil {
		return experiments.Sweep{}, err
	}
	m, err := q.MachineModel()
	if err != nil {
		return experiments.Sweep{}, err
	}
	return experiments.Sweep{
		ID: "planapi", Title: "planapi request",
		Grid:    g,
		Heights: experiments.Ladder(4, g.K/4),
		Machine: m,
		Cap:     sim.CapDMA,
		Exact:   q.Exact,
	}, nil
}

// SeedFor returns the analytic closed-form optimum for the request's mode
// on grid g — the seed the service reports in PlanResult.SeedV. Zero when
// the closed form has no solution.
func SeedFor(g model.Grid3D, m model.Machine, mode sim.Mode) float64 {
	var seed float64
	var err error
	if mode == sim.Blocking {
		seed, _, err = g.OptimalVBlockingAnalytic(m)
	} else {
		seed, _, err = g.OptimalVOverlapAnalytic(m)
	}
	if err != nil {
		return 0
	}
	return seed
}

// EncodeResult writes res as a single JSON object followed by a newline.
func EncodeResult(w io.Writer, res PlanResult) error {
	return json.NewEncoder(w).Encode(res)
}

// DecodeResult reads one PlanResult — the client-side counterpart of
// EncodeResult, used by tests and smoke drivers.
func DecodeResult(r io.Reader) (PlanResult, error) {
	var res PlanResult
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		return PlanResult{}, fmt.Errorf("planapi: decode result: %w", err)
	}
	return res, nil
}
