package estimate

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// Default certification constants, tuned on the paper's Fig. 9-11 spaces
// and a randomized machine population: the calibrated residual is the
// sharp gate (model-vs-DES shape error stays below ~3% where the affine
// machine model holds), the raw tolerance is the blunt one that rejects
// regimes the model does not describe at all.
const (
	DefaultTol      = 0.30 // max |model − probe| / probe over probed rungs
	DefaultResidTol = 0.06 // same, after geometric-mean ratio calibration
	DefaultMargin   = 2.0  // elision safety margin, in units of DefaultResidTol
)

// Tier identifies which tier produced an Outcome.
type Tier int

const (
	// TierCertified means the analytic-seeded probe search certified its
	// candidate: the answer cost only the recorded probes.
	TierCertified Tier = iota
	// TierExact means the exact sweep produced the answer, either because
	// certification failed or because the caller forced it.
	TierExact
)

func (t Tier) String() string {
	switch t {
	case TierCertified:
		return "certified"
	case TierExact:
		return "exact"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// Config describes one tiered optimum query. Model and Probe price a tile
// height analytically and by simulation respectively; both must be
// deterministic for a given height. The search never looks outside
// Heights.
type Config struct {
	// Heights is the candidate ladder. It is copied, sorted, and deduped;
	// the search returns one of these values.
	Heights []int64
	// SeedV is the closed-form optimum seeding the bracket. A non-positive
	// or non-finite seed sends the query straight to the exact tier.
	SeedV float64
	// Model prices a height with the analytic cost model (seconds).
	Model func(v int64) float64
	// Probe prices a height on the simulator (seconds). Errors abort the
	// query — the exact tier would hit the same failure. Optimum never calls
	// Probe concurrently, so a wrapper around it needs no locking; Probe
	// itself may run work in parallel inside one call (ForGrid's does).
	Probe func(v int64) (float64, error)
	// Bound returns a lower bound on Probe(v) (seconds) without
	// simulating; nil means no bound. The walk skips a neighbor the bound
	// proves no better than the incumbent when the model prices it within
	// DefaultTol of that bound. It must be deterministic for a given
	// height.
	Bound func(v int64) float64
	// Exact computes the reference answer for the fallback tier. When nil,
	// the fallback probes every height sequentially and returns the
	// earliest height of minimal time — the same tie-break as the
	// experiments package's exact search.
	Exact func() (v int64, t float64, err error)
}

// Outcome reports a tiered query's answer and how it was obtained.
type Outcome struct {
	V    int64   // optimal tile height
	T    float64 // its simulated completion time
	Tier Tier
	// Probes counts the DES probes the tiered stage issued, plus the
	// fallback's own probes when Config.Exact was nil. A caller-supplied
	// Exact does its own accounting (e.g. via sim.CacheStats).
	Probes int
	// FallbackReason says why the exact tier ran: "seed" (unusable
	// analytic seed), "ladder" (fewer than two candidate heights), "tie"
	// (bracket probes tied), "tol" / "resid" (certification tolerance
	// exceeded). Empty for certified answers.
	FallbackReason string
}

// probeRec is one probed (height, time) pair. Probes are kept in issue
// order in a slice — not ranged from a map — so every derived quantity
// (calibration ratio, certification maxima) is computed in a fixed order.
type probeRec struct {
	v int64
	t float64
}

// Optimum answers one tiered optimum query. Cancellation of ctx is checked
// before every probe (the unit of DES work), so a cancelled or expired
// context aborts the search mid-ladder with ctx.Err() rather than running
// the remaining probes; completed probes stay wherever Config.Probe cached
// them, so a later uncancelled query reuses them bit-identically.
func Optimum(ctx context.Context, cfg Config) (Outcome, error) {
	if cfg.Model == nil || cfg.Probe == nil {
		return Outcome{}, fmt.Errorf("estimate: Config.Model and Config.Probe are required")
	}
	heights := dedupeSorted(cfg.Heights)

	var (
		recs   []probeRec
		seen   = make(map[int64]float64, 8)
		nProbe int
	)
	probe := func(v int64) (float64, error) {
		if t, ok := seen[v]; ok {
			return t, nil
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		t, err := cfg.Probe(v)
		if err != nil {
			return 0, err
		}
		seen[v] = t
		recs = append(recs, probeRec{v, t})
		nProbe++
		return t, nil
	}
	fallback := func(reason string) (Outcome, error) {
		if cfg.Exact != nil {
			v, t, err := cfg.Exact()
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{V: v, T: t, Tier: TierExact, Probes: nProbe, FallbackReason: reason}, nil
		}
		best, bestT := int64(-1), 0.0
		for _, v := range heights {
			t, err := probe(v)
			if err != nil {
				return Outcome{}, err
			}
			if best < 0 || t < bestT {
				best, bestT = v, t
			}
		}
		return Outcome{V: best, T: bestT, Tier: TierExact, Probes: nProbe, FallbackReason: reason}, nil
	}

	if len(heights) < 2 {
		if len(heights) == 0 {
			return Outcome{}, fmt.Errorf("estimate: no candidate heights")
		}
		return fallback("ladder")
	}
	// Tier 1: bracket the two ladder rungs straddling the analytic seed.
	lo, hi, ok := bracket(heights, cfg.SeedV)
	if !ok {
		return fallback("seed")
	}

	// Tier 2: probe the bracket, lower rung first, and walk downhill along
	// the ladder.
	tLo, err := probe(heights[lo])
	if err != nil {
		return Outcome{}, err
	}
	tHi, err := probe(heights[hi])
	if err != nil {
		return Outcome{}, err
	}
	best := lo
	if tHi == tLo {
		// A tied bracket gives the walk no descent direction; the exact
		// tier owes the caller the earliest-minimum answer.
		return fallback("tie")
	}
	if tHi < tLo {
		best = hi
	}

	// stay reports whether the walk should NOT move to neighbor index j:
	// either j is off the ladder, or j is certifiably no better than the
	// incumbent. A probed neighbor is compared directly — ties keep the
	// walk moving down but not up, matching the exact tier's
	// earliest-minimum tie-break. An unprobed neighbor is elided (certified
	// worse without simulating) when its calibrated prediction exceeds the
	// incumbent by the safety margin, or when Config.Bound proves it no
	// better (under the same tie-break) and the model prices it within
	// DefaultTol of that bound; otherwise it is probed. The calibration
	// ratio rho rescales the model through the incumbent's probe, so
	// elision only trusts the model's local shape, not its absolute scale.
	// The bound needs the model guard because a probe also feeds
	// certification: a neighbor the model misprices even at its bound is
	// probed, so it can still fail certification and send the query to the
	// exact tier. Both elisions read only the query's own functions, never
	// a cache, so the walk is the same on a cold cache and a warm one. All
	// float comparisons are written so that a NaN prediction or bound fails
	// them and forces a real probe.
	noBetter := func(t, tBest float64, movingUp bool) bool {
		if movingUp {
			return !(t < tBest)
		}
		return t > tBest
	}
	stay := func(j int, movingUp bool) (bool, error) {
		if j < 0 || j >= len(heights) {
			return true, nil
		}
		v := heights[j]
		tBest := seen[heights[best]]
		if t, ok := seen[v]; ok {
			return noBetter(t, tBest, movingUp), nil
		}
		rho := tBest / cfg.Model(heights[best])
		pred := cfg.Model(v)
		if rho*pred > tBest*(1+DefaultMargin*DefaultResidTol) {
			return true, nil
		}
		if cfg.Bound != nil {
			if b := cfg.Bound(v); (b > tBest || movingUp && b == tBest) && math.Abs(pred-b) <= DefaultTol*b {
				return true, nil
			}
		}
		t, err := probe(v)
		if err != nil {
			return false, err
		}
		return noBetter(t, tBest, movingUp), nil
	}
	for steps := 0; steps < len(heights); steps++ {
		stayDown, err := stay(best-1, false)
		if err != nil {
			return Outcome{}, err
		}
		if !stayDown {
			best--
			continue
		}
		stayUp, err := stay(best+1, true)
		if err != nil {
			return Outcome{}, err
		}
		if !stayUp {
			best++
			continue
		}
		break
	}

	// Tier 3: certify. Recompute the calibration ratio as the geometric
	// mean over every probe, then require both the raw and the calibrated
	// model-vs-DES disagreement to stay within tolerance at every probed
	// rung. The checks are written as !(err <= DefaultTol) so a NaN from a
	// degenerate model fails certification instead of passing it.
	logSum := 0.0
	for _, r := range recs {
		logSum += math.Log(r.t / cfg.Model(r.v))
	}
	rho := math.Exp(logSum / float64(len(recs)))
	for _, r := range recs {
		pred := cfg.Model(r.v)
		if e := math.Abs(pred-r.t) / r.t; !(e <= DefaultTol) {
			return fallback("tol")
		}
		if e := math.Abs(rho*pred-r.t) / r.t; !(e <= DefaultResidTol) {
			return fallback("resid")
		}
	}
	return Outcome{V: heights[best], T: seen[heights[best]], Tier: TierCertified, Probes: nProbe}, nil
}

// bracket returns the indices of the two rungs of the sorted, deduped
// ladder heights that straddle the analytic seed — the edge rungs when the
// seed falls outside the ladder. ok is false when the ladder has fewer than
// two rungs or the seed is non-positive or non-finite, which leaves the
// search nothing to bracket.
func bracket(heights []int64, seed float64) (lo, hi int, ok bool) {
	if len(heights) < 2 || !(seed > 0) || math.IsInf(seed, 1) {
		return 0, 0, false
	}
	i := sort.Search(len(heights), func(i int) bool { return float64(heights[i]) >= seed })
	switch {
	case i == 0:
		return 0, 1, true
	case i == len(heights):
		return len(heights) - 2, len(heights) - 1, true
	}
	return i - 1, i, true
}

// dedupeSorted returns vs sorted with duplicates removed: vs itself when
// it already is (a ladder usually arrives that way, and callers only read
// the result), otherwise a sorted copy.
func dedupeSorted(vs []int64) []int64 {
	i := 1
	for i < len(vs) && vs[i-1] < vs[i] {
		i++
	}
	if i >= len(vs) {
		return vs
	}
	out := append([]int64(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}
