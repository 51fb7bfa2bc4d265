package schedule

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/deps"
	"repro/internal/ilmath"
	"repro/internal/space"
)

func TestUETMakespan(t *testing.T) {
	if got := uetMakespan(space.MustRect(4, 4, 37)); got != 3+3+36+1 {
		t.Errorf("UET = %d, want 43", got)
	}
	neg := space.MustNew(ilmath.V(-2, 0), ilmath.V(2, 3))
	if got := uetMakespan(neg); got != 4+3+1 {
		t.Errorf("UET = %d, want 8", got)
	}
}

func TestUETUCTMakespanFor(t *testing.T) {
	s := space.MustRect(4, 4, 37)
	// Map along k (dim 2): 2·3 + 2·3 + 36 + 1 = 49.
	if got, err := uetUCTMakespanFor(s, 2); err != nil || got != 49 {
		t.Errorf("UETUCT(map 2) = %d, %v; want 49", got, err)
	}
	// Map along i: 3 + 2·3 + 2·36 + 1 = 82.
	if got, _ := uetUCTMakespanFor(s, 0); got != 82 {
		t.Errorf("UETUCT(map 0) = %d, want 82", got)
	}
	if _, err := uetUCTMakespanFor(s, 5); err == nil {
		t.Error("out-of-range mapDim accepted")
	}
}

func TestUETUCTOptimalIsLargestDim(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		s := space.MustRect(r.Int63n(20)+1, r.Int63n(20)+1, r.Int63n(20)+1)
		dim, length := optimalOverlapMapping(s)
		// The returned length must equal the min over all mapping dims, and
		// the largest dimension must achieve it.
		if length != uetUCTMakespan(s) {
			t.Fatalf("optimalOverlapMapping length %d != uetUCTMakespan %d", length, uetUCTMakespan(s))
		}
		largest := s.LargestDim()
		tl, _ := uetUCTMakespanFor(s, largest)
		if tl != length {
			t.Fatalf("largest-dim mapping %d not optimal for %v (got %d via dim %d)",
				tl, s, length, dim)
		}
	}
}

// TestOverlapScheduleMatchesUETUCT: the paper's overlapping linear schedule
// realizes exactly the UET-UCT optimal makespan of Andronikos et al. for
// every mapping dimension.
func TestOverlapScheduleMatchesUETUCT(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		s := space.MustRect(r.Int63n(12)+1, r.Int63n(12)+1, r.Int63n(12)+1)
		for d := 0; d < 3; d++ {
			ov, err := Overlapping(3, d)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ov.Length(s, deps.Unit(3))
			if err != nil {
				t.Fatal(err)
			}
			want, _ := uetUCTMakespanFor(s, d)
			if got != want {
				t.Fatalf("overlap schedule length %d != UET-UCT %d for %v map %d", got, want, s, d)
			}
		}
	}
}

// TestNonOverlapScheduleMatchesUET: Π = (1,…,1) realizes the UET wavefront
// makespan.
func TestNonOverlapScheduleMatchesUET(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		s := space.MustRect(r.Int63n(12)+1, r.Int63n(12)+1)
		got, err := NonOverlapping(2).Length(s, deps.Unit(2))
		if err != nil {
			t.Fatal(err)
		}
		if got != uetMakespan(s) {
			t.Fatalf("non-overlap length %d != UET %d for %v", got, uetMakespan(s), s)
		}
	}
}

// The UET and UET-UCT makespans below are the property tests' oracles: the
// paper's two schedules must realise them exactly. No command needs them.

// uetMakespan returns the optimal makespan of a unit-execution-time grid
// task graph over space s (unit dependences, free communication): the
// wavefront count Σ(u_d − l_d) + 1.
func uetMakespan(s *space.Space) int64 {
	var t int64 = 1
	for d := 0; d < s.Dim(); d++ {
		t += s.Upper[d] - s.Lower[d]
	}
	return t
}

// uetUCTMakespanFor returns the makespan of the UET-UCT (unit execution,
// unit communication) schedule of Andronikos et al. [1] when all points
// along dimension mapDim are assigned to the same processor:
//
//	2·Σ_{d≠mapDim}(u_d − l_d) + (u_mapDim − l_mapDim) + 1
func uetUCTMakespanFor(s *space.Space, mapDim int) (int64, error) {
	if mapDim < 0 || mapDim >= s.Dim() {
		return 0, fmt.Errorf("schedule: mapDim %d out of range", mapDim)
	}
	var t int64 = 1
	for d := 0; d < s.Dim(); d++ {
		e := s.Upper[d] - s.Lower[d]
		if d == mapDim {
			t += e
		} else {
			t += 2 * e
		}
	}
	return t, nil
}

// uetUCTMakespan returns the optimal UET-UCT makespan over all mapping
// choices — attained by mapping along the largest dimension, the result the
// paper's overlapping schedule builds on.
func uetUCTMakespan(s *space.Space) int64 {
	best, _ := uetUCTMakespanFor(s, 0)
	for d := 1; d < s.Dim(); d++ {
		if t, _ := uetUCTMakespanFor(s, d); t < best {
			best = t
		}
	}
	return best
}

// optimalOverlapMapping returns the mapping dimension minimizing the
// overlapped schedule length (ties to the first), together with that
// length. It equals the largest-extent dimension.
func optimalOverlapMapping(s *space.Space) (int, int64) {
	bestDim := 0
	bestLen, _ := uetUCTMakespanFor(s, 0)
	for d := 1; d < s.Dim(); d++ {
		if t, _ := uetUCTMakespanFor(s, d); t < bestLen {
			bestDim, bestLen = d, t
		}
	}
	return bestDim, bestLen
}
