package mp

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// The sum and maximum reductions the tests use.
var (
	opSum ReduceOp = func(a, b float64) float64 { return a + b }
	opMax ReduceOp = func(a, b float64) float64 { return math.Max(a, b) }
)

func TestBcastAllSizesAndRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8, 13} {
		for root := 0; root < n; root += max(1, n/3) {
			payload := []byte(fmt.Sprintf("broadcast from %d of %d", root, n))
			err := Launch(n, func(c Comm) error {
				buf := make([]byte, len(payload))
				if c.Rank() == root {
					copy(buf, payload)
				}
				if err := Bcast(c, root, buf); err != nil {
					return err
				}
				if !bytes.Equal(buf, payload) {
					return fmt.Errorf("rank %d got %q", c.Rank(), buf)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestBcastBadRoot(t *testing.T) {
	err := Launch(2, func(c Comm) error {
		return Bcast(c, 5, []byte{1})
	})
	if err == nil {
		t.Error("bad root accepted")
	}
}

func TestReduceSum(t *testing.T) {
	const n = 7
	err := Launch(n, func(c Comm) error {
		in := []float64{float64(c.Rank()), 1, float64(c.Rank() * c.Rank())}
		res, err := Reduce(c, 0, in, opSum)
		if err != nil {
			return err
		}
		if c.Rank() != 0 {
			if res != nil {
				return fmt.Errorf("non-root got a result")
			}
			return nil
		}
		// Σr = 21, Σ1 = 7, Σr² = 91 for r in 0..6.
		want := []float64{21, 7, 91}
		for i := range want {
			if res[i] != want[i] {
				return fmt.Errorf("res[%d] = %g, want %g", i, res[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceNonZeroRoot(t *testing.T) {
	const n = 4
	err := Launch(n, func(c Comm) error {
		res, err := Reduce(c, 2, []float64{1}, opSum)
		if err != nil {
			return err
		}
		if c.Rank() == 2 && res[0] != 4 {
			return fmt.Errorf("sum = %g, want 4", res[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceOps(t *testing.T) {
	const n = 5
	err := Launch(n, func(c Comm) error {
		in := []float64{float64(c.Rank())}
		mx, err := Reduce(c, 0, in, opMax)
		if err != nil {
			return err
		}
		mn, err := Reduce(c, 0, in, OpMin)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if mx[0] != 4 || mn[0] != 0 {
				return fmt.Errorf("max %g min %g", mx[0], mn[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceNilOp(t *testing.T) {
	err := Launch(2, func(c Comm) error {
		_, err := Reduce(c, 0, []float64{1}, nil)
		if err == nil {
			return fmt.Errorf("nil op accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduce(t *testing.T) {
	const n = 6
	err := Launch(n, func(c Comm) error {
		res, err := AllReduce(c, []float64{float64(c.Rank() + 1)}, opSum)
		if err != nil {
			return err
		}
		if res[0] != 21 { // 1+2+…+6
			return fmt.Errorf("rank %d allreduce = %g, want 21", c.Rank(), res[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesBackToBack(t *testing.T) {
	// Repeated collectives with the same tags must not interfere (FIFO
	// non-overtaking keeps rounds ordered).
	const n = 4
	err := Launch(n, func(c Comm) error {
		for round := 0; round < 20; round++ {
			buf := []byte{byte(round)}
			if c.Rank() != 0 {
				buf[0] = 0xFF
			}
			if err := Bcast(c, 0, buf); err != nil {
				return err
			}
			if buf[0] != byte(round) {
				return fmt.Errorf("round %d: got %d", round, buf[0])
			}
			sum, err := AllReduce(c, []float64{float64(round)}, opSum)
			if err != nil {
				return err
			}
			if sum[0] != float64(round*n) {
				return fmt.Errorf("round %d: sum %g", round, sum[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackFloats(t *testing.T) {
	xs := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	buf := make([]byte, 8*len(xs))
	packFloats(buf, xs)
	got := unpackFloats(buf)
	for i := range xs {
		if got[i] != xs[i] {
			t.Errorf("roundtrip[%d] = %g, want %g", i, got[i], xs[i])
		}
	}
}

func TestCollectivesOverTCP(t *testing.T) {
	err := launchTCP(t, 4, func(c Comm) error {
		sum, err := AllReduce(c, []float64{1}, opSum)
		if err != nil {
			return err
		}
		if sum[0] != 4 {
			return fmt.Errorf("allreduce over tcp = %g", sum[0])
		}
		buf := []byte{0}
		if c.Rank() == 1 {
			buf[0] = 42
		}
		if err := Bcast(c, 1, buf); err != nil {
			return err
		}
		if buf[0] != 42 {
			return fmt.Errorf("bcast over tcp = %d", buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
