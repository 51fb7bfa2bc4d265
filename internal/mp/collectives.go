package mp

import (
	"fmt"
	"math"
)

// Collective operations in the style of MPI, built on the point-to-point
// primitives. Like MPI collectives they must be called by every rank of the
// communicator, in the same order; distinct collectives are kept apart by
// reserved tags plus the transport's non-overtaking guarantee.

// UserTagLimit bounds the tags a caller may use for its own point-to-point
// messages: [0, UserTagLimit). The collectives' reserved bands start at it, so
// a caller that derives tags from a count (a tile index, say) must reject
// counts that would reach it.
const UserTagLimit = 1 << 28

// Reserved tag bases for collectives.
const (
	tagBcast = UserTagLimit + iota*4096
	tagReduce
)

// ReduceOp combines two float64 values.
type ReduceOp func(a, b float64) float64

// OpMin is the minimum reduction: the ranks agree on a restore tile with it.
var OpMin ReduceOp = func(a, b float64) float64 { return math.Min(a, b) }

// vrank maps rank into the tree rooted at root.
func vrank(rank, root, size int) int { return (rank - root + size) % size }

// arank maps a virtual rank back to an actual rank.
func arank(v, root, size int) int { return (v + root) % size }

// Bcast broadcasts buf from root to every rank over a binomial tree. On
// non-root ranks buf is overwritten; its length must match the root's.
func Bcast(c Comm, root int, buf []byte) error {
	size := c.Size()
	if err := checkRank(root, size, "root"); err != nil {
		return err
	}
	if size == 1 {
		return nil
	}
	v := vrank(c.Rank(), root, size)
	// Binomial tree: in round m (mask = 1<<m), virtual ranks < mask send to
	// rank+mask; ranks in [mask, 2·mask) receive from rank−mask.
	received := v == 0
	for mask := 1; mask < size; mask <<= 1 {
		if v < mask {
			// Potential sender this round.
			peer := v + mask
			if peer < size && received {
				if err := c.Send(arank(peer, root, size), tagBcast, buf); err != nil {
					return err
				}
			}
		} else if v < mask<<1 {
			// Receiver this round.
			peer := v - mask
			st, err := c.Recv(arank(peer, root, size), tagBcast, buf)
			if err != nil {
				return err
			}
			if st.Bytes != len(buf) {
				return fmt.Errorf("mp: bcast size mismatch: got %d, buffer %d", st.Bytes, len(buf))
			}
			received = true
		}
	}
	return nil
}

// Reduce combines the in slices of all ranks elementwise with op, leaving
// the result on root (returned there; nil elsewhere). All ranks must pass
// slices of equal length.
func Reduce(c Comm, root int, in []float64, op ReduceOp) ([]float64, error) {
	size := c.Size()
	if err := checkRank(root, size, "root"); err != nil {
		return nil, err
	}
	if op == nil {
		return nil, fmt.Errorf("mp: nil reduce op")
	}
	acc := append([]float64(nil), in...)
	v := vrank(c.Rank(), root, size)
	// Reverse binomial tree: in round mask, virtual ranks with bit mask set
	// send their accumulator to v-mask and drop out.
	buf := make([]byte, 8*len(in))
	for mask := 1; mask < size; mask <<= 1 {
		if v&mask != 0 {
			packFloats(buf, acc)
			return nil, c.Send(arank(v-mask, root, size), tagReduce, buf)
		}
		peer := v + mask
		if peer < size {
			st, err := c.Recv(arank(peer, root, size), tagReduce, buf)
			if err != nil {
				return nil, err
			}
			if st.Bytes != len(buf) {
				return nil, fmt.Errorf("mp: reduce size mismatch from rank %d", st.Source)
			}
			other := unpackFloats(buf)
			for i := range acc {
				acc[i] = op(acc[i], other[i])
			}
		}
	}
	return acc, nil
}

// AllReduce is Reduce to rank 0 followed by Bcast: every rank receives the
// combined result.
func AllReduce(c Comm, in []float64, op ReduceOp) ([]float64, error) {
	res, err := Reduce(c, 0, in, op)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 8*len(in))
	if c.Rank() == 0 {
		packFloats(buf, res)
	}
	if err := Bcast(c, 0, buf); err != nil {
		return nil, err
	}
	return unpackFloats(buf), nil
}

func packFloats(buf []byte, xs []float64) {
	for i, x := range xs {
		u := math.Float64bits(x)
		o := i * 8
		buf[o] = byte(u >> 56)
		buf[o+1] = byte(u >> 48)
		buf[o+2] = byte(u >> 40)
		buf[o+3] = byte(u >> 32)
		buf[o+4] = byte(u >> 24)
		buf[o+5] = byte(u >> 16)
		buf[o+6] = byte(u >> 8)
		buf[o+7] = byte(u)
	}
}

func unpackFloats(buf []byte) []float64 {
	xs := make([]float64, len(buf)/8)
	for i := range xs {
		o := i * 8
		u := uint64(buf[o])<<56 | uint64(buf[o+1])<<48 | uint64(buf[o+2])<<40 | uint64(buf[o+3])<<32 |
			uint64(buf[o+4])<<24 | uint64(buf[o+5])<<16 | uint64(buf[o+6])<<8 | uint64(buf[o+7])
		xs[i] = math.Float64frombits(u)
	}
	return xs
}
