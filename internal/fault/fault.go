package fault

import (
	"fmt"
	"math"
)

// Stream identifiers keep the per-purpose hash families disjoint: the same
// (proc) id asked for a CPU factor and a pause probability must see
// independent values.
const (
	streamCPU uint64 = 1 + iota
	streamLink
	streamWire
	streamLoss
	streamPause
	streamPauseDur
)

// Plan is a replayable fault-injection specification. The zero value is the
// null plan: no perturbation of any kind (Active() == false), and a
// simulation run under it is byte-identical to an unfaulted one.
//
// Plan is a plain comparable value so it can key memo caches directly.
type Plan struct {
	// Seed selects the random universe; two plans with different seeds
	// draw independent perturbations.
	Seed uint64
	// Intensity in [0, 1] scales every perturbation; 0 disables all of
	// them regardless of the knobs below.
	Intensity float64

	// CPUStraggle is the maximum fractional CPU slowdown at intensity 1:
	// a processor's CPU work is inflated by a factor in
	// [1, 1+Intensity·CPUStraggle].
	CPUStraggle float64
	// LinkSlowdown is the maximum fractional inflation of everything
	// riding a communication port (wire occupancy, DMA copies,
	// retransmission timeouts) at intensity 1, drawn once per port.
	LinkSlowdown float64
	// WireJitter is the maximum fractional per-transmission-attempt
	// jitter on the wire time of a message at intensity 1.
	WireJitter float64
	// LossProb is the per-attempt probability that a message transmission
	// is lost at intensity 1 (effective probability Intensity·LossProb).
	LossProb float64
	// MaxResend caps how many times one message is retransmitted; after
	// the cap the transmission succeeds (the model degrades, it does not
	// deadlock).
	MaxResend int
	// TimeoutWire is the retransmission timeout expressed as a multiple
	// of the message's nominal wire time.
	TimeoutWire float64
	// BackoffFactor multiplies the timeout on every further retransmission
	// (exponential backoff). Values below 1 are treated as 1 (constant
	// timeout).
	BackoffFactor float64
	// PauseProb is the probability, per (processor, step), of a transient
	// node pause at intensity 1.
	PauseProb float64
	// PauseMean scales pause durations: a triggered pause lasts
	// Intensity·PauseMean·u seconds with u in [0.5, 1.5).
	PauseMean float64
}

// Default returns the canonical plan used by the degradation sweeps: all
// fault classes enabled with magnitudes that stress but do not drown the
// schedules (at intensity 1: CPUs up to 1.5x slower, links up to 1.5x
// slower, 10% message loss with up to 4 retransmits, 2% pause chance of a
// few hundred microseconds per tile step).
func Default(seed uint64, intensity float64) Plan {
	return Plan{
		Seed:          seed,
		Intensity:     intensity,
		CPUStraggle:   0.5,
		LinkSlowdown:  0.5,
		WireJitter:    0.5,
		LossProb:      0.10,
		MaxResend:     4,
		TimeoutWire:   3,
		BackoffFactor: 2,
		PauseProb:     0.02,
		PauseMean:     500e-6,
	}
}

// Active reports whether the plan perturbs anything at all.
func (p Plan) Active() bool { return p.Intensity > 0 }

// Validate checks the plan for internal consistency. The zero plan is
// valid.
func (p Plan) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Intensity", p.Intensity},
		{"CPUStraggle", p.CPUStraggle},
		{"LinkSlowdown", p.LinkSlowdown},
		{"WireJitter", p.WireJitter},
		{"LossProb", p.LossProb},
		{"TimeoutWire", p.TimeoutWire},
		{"BackoffFactor", p.BackoffFactor},
		{"PauseProb", p.PauseProb},
		{"PauseMean", p.PauseMean},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("fault: %s must be finite and non-negative, got %g", f.name, f.v)
		}
	}
	if p.Intensity > 1 {
		return fmt.Errorf("fault: Intensity must be in [0, 1], got %g", p.Intensity)
	}
	if p.MaxResend < 0 {
		return fmt.Errorf("fault: MaxResend must be non-negative, got %d", p.MaxResend)
	}
	if p.Intensity*p.LossProb >= 1 {
		return fmt.Errorf("fault: effective loss probability %g must be below 1",
			p.Intensity*p.LossProb)
	}
	if p.BackoffFactor != 0 && p.BackoffFactor < 1 {
		return fmt.Errorf("fault: BackoffFactor must be 0 or >= 1, got %g", p.BackoffFactor)
	}
	return nil
}

func (p Plan) String() string {
	return fmt.Sprintf("fault(seed=%d intensity=%g)", p.Seed, p.Intensity)
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mix, the
// standard seeding primitive of the xoshiro family.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Unit hashes (seed, ids...) to a uniform float64 in [0, 1). It is the
// shared stateless randomness primitive: exported so the real executor's
// delay-injection tests draw from the same replayable family.
func Unit(seed uint64, ids ...int64) float64 {
	h := splitmix64(seed)
	for _, id := range ids {
		h = splitmix64(h ^ uint64(id))
	}
	return float64(h>>11) / (1 << 53)
}

// unit is Unit under one of the plan's streams.
func (p Plan) unit(stream uint64, ids ...int64) float64 {
	h := splitmix64(p.Seed ^ splitmix64(stream))
	for _, id := range ids {
		h = splitmix64(h ^ uint64(id))
	}
	return float64(h>>11) / (1 << 53)
}

// CPUFactor returns processor proc's CPU slowdown factor, in
// [1, 1+Intensity·CPUStraggle]. A factor of 1.2 means every CPU-resident
// duration on that node takes 20% longer.
func (p Plan) CPUFactor(proc int64) float64 {
	if p.Intensity <= 0 || p.CPUStraggle <= 0 {
		return 1
	}
	return 1 + p.Intensity*p.CPUStraggle*p.unit(streamCPU, proc)
}

// LinkFactor returns the slowdown factor of one communication port,
// identified by an arbitrary integer id (the sim layer uses 2·proc and
// 2·proc+1 for the rx and tx ports and −1 for a shared bus). Everything
// occupying the port — wire time, DMA copies, retransmission timeouts —
// inflates by it.
func (p Plan) LinkFactor(port int64) float64 {
	if p.Intensity <= 0 || p.LinkSlowdown <= 0 {
		return 1
	}
	return 1 + p.Intensity*p.LinkSlowdown*p.unit(streamLink, port)
}

// WireFactor returns the jitter factor of one transmission attempt of the
// message fromRank→toRank, in [1, 1+Intensity·WireJitter]. Each
// retransmission attempt jitters independently.
func (p Plan) WireFactor(fromRank, toRank int64, attempt int) float64 {
	if p.Intensity <= 0 || p.WireJitter <= 0 {
		return 1
	}
	return 1 + p.Intensity*p.WireJitter*p.unit(streamWire, fromRank, toRank, int64(attempt))
}

// Resends returns how many transmission attempts of the message
// fromRank→toRank are lost before one succeeds (0 = first attempt gets
// through), capped at MaxResend. For a fixed seed the count is monotone
// non-decreasing in Intensity: attempt i fails iff its fixed hash value is
// below Intensity·LossProb.
func (p Plan) Resends(fromRank, toRank int64) int {
	loss := p.Intensity * p.LossProb
	if loss <= 0 || p.MaxResend <= 0 {
		return 0
	}
	n := 0
	for n < p.MaxResend && p.unit(streamLoss, fromRank, toRank, int64(n)) < loss {
		n++
	}
	return n
}

// RetryDelay returns the retransmission timeout that follows lost attempt
// number `attempt` (0-based) of a message whose nominal wire time is
// `wire`: TimeoutWire·wire, doubled (BackoffFactor) per further attempt.
func (p Plan) RetryDelay(wire float64, attempt int) float64 {
	bf := p.BackoffFactor
	if bf < 1 {
		bf = 1
	}
	d := p.TimeoutWire * wire
	for i := 0; i < attempt; i++ {
		d *= bf
	}
	return d
}

// Pause returns the duration of the transient pause processor proc suffers
// before its step-th tile, or 0 (the common case: pauses trigger with
// probability Intensity·PauseProb per step).
func (p Plan) Pause(proc, step int64) float64 {
	trigger := p.Intensity * p.PauseProb
	if trigger <= 0 || p.PauseMean <= 0 {
		return 0
	}
	if p.unit(streamPause, proc, step) >= trigger {
		return 0
	}
	return p.Intensity * p.PauseMean * (0.5 + p.unit(streamPauseDur, proc, step))
}
