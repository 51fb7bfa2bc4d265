package mp

import "fmt"

// Pluggable collective schedules. The binomial-tree collectives of
// collectives.go minimize the number of rounds for short messages; for long
// payloads the bandwidth term dominates and round-scheduled algorithms
// (scatter + recursive-doubling allgather for broadcast, recursive-halving
// reduce-scatter for reductions — the direction of Träff's optimal-depth
// round schedules) move ~2n bytes per rank in 2⌈log₂p⌉ rounds instead of
// n⌈log₂p⌉. On a hierarchical machine (internal/topo), a leaders-first
// two-stage schedule keeps all cross-switch traffic in one phase.
//
// Every schedule is a drop-in replacement: payloads and — crucially —
// reduction results are bit-identical to the binomial schedule's. Floating
// point reduction is not associative, so this is a property of the combine
// trees, not of arithmetic: the round-scheduled reduce-scatter combines
// partials over exactly the balanced vrank-range tree the binomial reduce
// builds (pairs, then pairs of pairs, always op(lowerRankPartial,
// higherRankPartial)), and the two-stage hierarchical reduction over
// power-of-two groups evaluates that same tree with the rounds merely
// reordered. Shapes where the trees would diverge never engage: the
// selection rules below fall back to binomial, so callers can switch
// schedules per topology without ever changing results. DESIGN.md §12
// documents the rules; the property tests in collsched_test.go enforce the
// bit-identity rank by rank.

// Schedule selects the communication structure of a collective.
type Schedule int

const (
	// ScheduleAuto picks per call: hierarchical when the topology hint
	// qualifies, round-scheduled for power-of-two sizes with non-degenerate
	// blocks, binomial otherwise.
	ScheduleAuto Schedule = iota
	// ScheduleBinomial is the classic binomial tree of collectives.go:
	// ⌈log₂p⌉ rounds, full payload per round. Always eligible.
	ScheduleBinomial
	// ScheduleRound is the round-scheduled long-message family: broadcast
	// as binomial scatter + recursive-doubling allgather, reduce as
	// recursive-halving reduce-scatter + gather, allreduce as
	// reduce-scatter + allgather (halving-doubling). 2⌈log₂p⌉ rounds,
	// ~2n bytes per rank. Engages only when Size() is a power of two;
	// otherwise the call falls back to binomial.
	ScheduleRound
	// ScheduleHierarchical is the topology-aware two-stage schedule over
	// CollectiveOpts.GroupSize-sized rank groups (one group per edge
	// switch): broadcast runs the cross-switch leader stage first and then
	// fans out inside every switch; reduction concentrates inside each
	// switch and then combines leaders. Engages only when GroupSize and
	// Size()/GroupSize are both powers of two (the shape where the
	// two-stage combine tree is bit-identical to the flat binomial one);
	// otherwise the call falls back to binomial.
	ScheduleHierarchical
)

func (s Schedule) String() string {
	switch s {
	case ScheduleAuto:
		return "auto"
	case ScheduleBinomial:
		return "binomial"
	case ScheduleRound:
		return "round"
	case ScheduleHierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// CollectiveOpts carries the schedule choice and the topology hint.
type CollectiveOpts struct {
	Schedule Schedule
	// GroupSize is the topology hint for ScheduleHierarchical (and Auto):
	// how many consecutive ranks share an edge switch (topo.Spec.GroupSize
	// of level 0). Groups are formed in the root-rotated virtual rank
	// space, so the stage structure is independent of the root. 0 means no
	// hint.
	GroupSize int
}

// Reserved tag bases for the scheduled collectives (one 4096-tag band each,
// continuing the collectives.go bands).
const (
	tagRoundBcastS = UserTagLimit + 3*4096 + iota*4096 // scatter phase
	tagRoundBcastG                                     // allgather phase
	tagRoundRedS                                       // reduce-scatter phase
	tagRoundRedG                                       // gather phase
	tagHierL                                           // hierarchical leader stage
	tagHierI                                           // hierarchical intra stage
)

// pow2 reports whether n is a positive power of two.
func pow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// hierEligible reports whether the two-stage schedule may engage: proper
// power-of-two groups partitioning a power-of-two world evaluate the same
// combine tree as the flat binomial schedule.
func hierEligible(size, g int) bool {
	return g > 1 && g < size && size%g == 0 && pow2(g) && pow2(size/g)
}

// pick resolves Auto against the communicator size and topology hint.
func (o CollectiveOpts) pick(size int) Schedule {
	switch o.Schedule {
	case ScheduleAuto:
		if hierEligible(size, o.GroupSize) {
			return ScheduleHierarchical
		}
		if pow2(size) && size > 1 {
			return ScheduleRound
		}
		return ScheduleBinomial
	default:
		return o.Schedule
	}
}

// BcastOpts is Bcast under an explicit schedule choice. All ranks must pass
// the same opts.
func BcastOpts(c Comm, root int, buf []byte, o CollectiveOpts) error {
	size := c.Size()
	if err := checkRank(root, size, "root"); err != nil {
		return err
	}
	if size == 1 {
		return nil
	}
	switch o.pick(size) {
	case ScheduleRound:
		if pow2(size) {
			return roundBcast(c, root, buf)
		}
	case ScheduleHierarchical:
		if hierEligible(size, o.GroupSize) {
			return hierBcast(c, root, buf, o.GroupSize)
		}
	}
	return Bcast(c, root, buf)
}

// ReduceOpts is Reduce under an explicit schedule choice. The result on root
// is bit-identical across schedules for any (even non-associative) op.
func ReduceOpts(c Comm, root int, in []float64, op ReduceOp, o CollectiveOpts) ([]float64, error) {
	size := c.Size()
	if err := checkRank(root, size, "root"); err != nil {
		return nil, err
	}
	if op == nil {
		return nil, fmt.Errorf("mp: nil reduce op")
	}
	switch o.pick(size) {
	case ScheduleRound:
		if pow2(size) && size > 1 {
			return roundReduce(c, root, in, op)
		}
	case ScheduleHierarchical:
		if hierEligible(size, o.GroupSize) {
			return hierReduce(c, root, in, op, o.GroupSize)
		}
	}
	return Reduce(c, root, in, op)
}

// AllReduceOpts is AllReduce under an explicit schedule choice; every rank
// receives bits identical to the binomial AllReduce's.
func AllReduceOpts(c Comm, in []float64, op ReduceOp, o CollectiveOpts) ([]float64, error) {
	size := c.Size()
	if op == nil {
		return nil, fmt.Errorf("mp: nil reduce op")
	}
	switch o.pick(size) {
	case ScheduleRound:
		if pow2(size) && size > 1 {
			return roundAllReduce(c, in, op)
		}
	case ScheduleHierarchical:
		if hierEligible(size, o.GroupSize) {
			res, err := hierReduce(c, 0, in, op, o.GroupSize)
			if err != nil {
				return nil, err
			}
			buf := make([]byte, 8*len(in))
			if c.Rank() == 0 {
				packFloats(buf, res)
			}
			if err := hierBcast(c, 0, buf, o.GroupSize); err != nil {
				return nil, err
			}
			return unpackFloats(buf), nil
		}
	}
	return AllReduce(c, in, op)
}

// roundBcast broadcasts by binomial scatter + recursive-doubling allgather.
// size must be a power of two. Block i of a length-n payload is
// buf[i·n/p : (i+1)·n/p] — integer offsets, monotone, exhaustive — so no
// length is unrepresentable and short payloads degrade to empty blocks.
func roundBcast(c Comm, root int, buf []byte) error {
	size := c.Size()
	v := vrank(c.Rank(), root, size)
	n := len(buf)
	off := func(i int) int { return i * n / size }

	// Scatter (masks descending): a holder v (multiple of 2·mask) owns
	// blocks [v, v+2·mask) and hands the upper half to v+mask.
	for mask := size >> 1; mask >= 1; mask >>= 1 {
		if v&(2*mask-1) == 0 {
			peer := v + mask
			s, e := off(peer), off(v+2*mask)
			if err := c.Send(arank(peer, root, size), tagRoundBcastS, buf[s:e]); err != nil {
				return err
			}
		} else if v&(mask-1) == 0 {
			peer := v - mask
			s, e := off(v), off(v+mask)
			st, err := c.Recv(arank(peer, root, size), tagRoundBcastS, buf[s:e])
			if err != nil {
				return err
			}
			if st.Bytes != e-s {
				return fmt.Errorf("mp: bcast scatter size mismatch: got %d, want %d", st.Bytes, e-s)
			}
		}
	}
	// Allgather (recursive doubling, masks ascending): v holds the
	// contiguous blocks [v&^(mask−1), +mask) and swaps ranges with v^mask.
	for mask := 1; mask < size; mask <<= 1 {
		peer := v ^ mask
		base := v &^ (mask - 1)
		pbase := peer &^ (mask - 1)
		sLo, sHi := off(base), off(base+mask)
		rLo, rHi := off(pbase), off(pbase+mask)
		st, err := Sendrecv(c,
			arank(peer, root, size), tagRoundBcastG, buf[sLo:sHi],
			arank(peer, root, size), tagRoundBcastG, buf[rLo:rHi])
		if err != nil {
			return err
		}
		if st.Bytes != rHi-rLo {
			return fmt.Errorf("mp: bcast allgather size mismatch: got %d, want %d", st.Bytes, rHi-rLo)
		}
	}
	return nil
}

// reduceScatter runs the recursive-halving reduce-scatter on acc (in the
// root-rotated vrank space) and returns the block index (in block units)
// this rank ends up owning — the bit-reversal of v. The combine tree per
// element is exactly the binomial reduce's balanced tree: at mask the two
// halves of a rank pair carry op-combined partials of the contiguous vrank
// ranges [.., v) and [v, ..), and the lower rank's partial is always the
// first operand.
func reduceScatter(c Comm, root, tag int, acc []float64, op ReduceOp) (int, error) {
	size := c.Size()
	v := vrank(c.Rank(), root, size)
	n := len(acc)
	off := func(i int) int { return i * n / size }
	sendBuf := make([]byte, 8*((n+1)/2+1))
	recvBuf := make([]byte, 8*((n+1)/2+1))

	lo, sz := 0, size // owned block range, in block units
	for mask := 1; mask < size; mask <<= 1 {
		half := sz / 2
		peer := v ^ mask
		keepLo, sendLo := lo, lo+half
		if v&mask != 0 {
			keepLo, sendLo = lo+half, lo
		}
		sLo, sHi := off(sendLo), off(sendLo+half)
		kLo, kHi := off(keepLo), off(keepLo+half)
		packFloats(sendBuf[:8*(sHi-sLo)], acc[sLo:sHi])
		ap := arank(peer, root, size)
		st, err := Sendrecv(c, ap, tag, sendBuf[:8*(sHi-sLo)], ap, tag, recvBuf[:8*(kHi-kLo)])
		if err != nil {
			return 0, err
		}
		if st.Bytes != 8*(kHi-kLo) {
			return 0, fmt.Errorf("mp: reduce-scatter size mismatch: got %d, want %d", st.Bytes, 8*(kHi-kLo))
		}
		other := unpackFloats(recvBuf[:8*(kHi-kLo)])
		if v&mask == 0 {
			// This rank is the lower half of the pair: its partial covers
			// the lower vrank range and stays the first operand.
			for i := range other {
				acc[kLo+i] = op(acc[kLo+i], other[i])
			}
		} else {
			for i := range other {
				acc[kLo+i] = op(other[i], acc[kLo+i])
			}
		}
		lo, sz = keepLo, half
	}
	return lo, nil
}

// roundReduce reduces by recursive-halving reduce-scatter followed by a
// binomial gather of the scattered blocks onto the root. size must be a
// power of two. The result bits on root equal the binomial Reduce's.
func roundReduce(c Comm, root int, in []float64, op ReduceOp) ([]float64, error) {
	size := c.Size()
	v := vrank(c.Rank(), root, size)
	acc := append([]float64(nil), in...)
	n := len(in)
	off := func(i int) int { return i * n / size }

	lo, err := reduceScatter(c, root, tagRoundRedS, acc, op)
	if err != nil {
		return nil, err
	}
	// Gather (masks descending). Invariant: before the mask step, every
	// live vrank w < 2·mask owns the contiguous blocks [lo(w), lo(w)+sz)
	// with sz = p/(2·mask) blocks, and lo(w+mask) == lo(w)+sz — the
	// bit-reversal permutation of the scatter makes the upper partner's
	// range land exactly after the lower's, so appends stay contiguous.
	buf := make([]byte, 8*n)
	sz := 1
	for mask := size >> 1; mask >= 1; mask >>= 1 {
		if v >= mask && v < 2*mask {
			sLo, sHi := off(lo), off(lo+sz)
			packFloats(buf[:8*(sHi-sLo)], acc[sLo:sHi])
			return nil, c.Send(arank(v-mask, root, size), tagRoundRedG, buf[:8*(sHi-sLo)])
		}
		if v < mask {
			rLo, rHi := off(lo+sz), off(lo+2*sz)
			st, err := c.Recv(arank(v+mask, root, size), tagRoundRedG, buf[:8*(rHi-rLo)])
			if err != nil {
				return nil, err
			}
			if st.Bytes != 8*(rHi-rLo) {
				return nil, fmt.Errorf("mp: reduce gather size mismatch: got %d, want %d", st.Bytes, 8*(rHi-rLo))
			}
			copy(acc[rLo:rHi], unpackFloats(buf[:8*(rHi-rLo)]))
			sz *= 2
		}
	}
	return acc, nil
}

// roundAllReduce is the halving-doubling allreduce: reduce-scatter, then an
// allgather that retraces the scatter's splits in reverse so every append
// stays contiguous. size must be a power of two; every rank's result bits
// equal the binomial AllReduce's.
func roundAllReduce(c Comm, in []float64, op ReduceOp) ([]float64, error) {
	size := c.Size()
	v := c.Rank() // root 0: vrank == rank
	acc := append([]float64(nil), in...)
	n := len(in)
	off := func(i int) int { return i * n / size }

	lo, err := reduceScatter(c, 0, tagRoundRedS, acc, op)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 8*n)
	sz := 1
	for mask := size >> 1; mask >= 1; mask >>= 1 {
		peer := v ^ mask
		sLo, sHi := off(lo), off(lo+sz)
		var rLo, rHi int
		if v&mask == 0 {
			// The partner kept the upper half at the scatter's mask step,
			// so its range sits immediately above ours.
			rLo, rHi = off(lo+sz), off(lo+2*sz)
		} else {
			rLo, rHi = off(lo-sz), off(lo)
			lo -= sz
		}
		packFloats(buf[:8*(sHi-sLo)], acc[sLo:sHi])
		st, err := Sendrecv(c, peer, tagRoundRedG, buf[:8*(sHi-sLo)],
			peer, tagRoundRedG, buf[8*(sHi-sLo):8*(sHi-sLo)+8*(rHi-rLo)])
		if err != nil {
			return nil, err
		}
		if st.Bytes != 8*(rHi-rLo) {
			return nil, fmt.Errorf("mp: allreduce allgather size mismatch: got %d, want %d", st.Bytes, 8*(rHi-rLo))
		}
		copy(acc[rLo:rHi], unpackFloats(buf[8*(sHi-sLo):8*(sHi-sLo)+8*(rHi-rLo)]))
		sz *= 2
	}
	return acc, nil
}

// bcastSpan runs a binomial broadcast over the vrank arithmetic span
// base+i·stride, i ∈ [0, count), rooted at span member 0. Ranks outside the
// span return immediately.
func bcastSpan(c Comm, root, base, stride, count, tag int, buf []byte) error {
	size := c.Size()
	me := vrank(c.Rank(), root, size)
	if me < base || (me-base)%stride != 0 {
		return nil
	}
	i := (me - base) / stride
	if i >= count {
		return nil
	}
	a := func(j int) int { return arank(base+j*stride, root, size) }
	for mask := 1; mask < count; mask <<= 1 {
		if i < mask {
			if peer := i + mask; peer < count {
				if err := c.Send(a(peer), tag, buf); err != nil {
					return err
				}
			}
		} else if i < mask<<1 {
			st, err := c.Recv(a(i-mask), tag, buf)
			if err != nil {
				return err
			}
			if st.Bytes != len(buf) {
				return fmt.Errorf("mp: bcast size mismatch: got %d, buffer %d", st.Bytes, len(buf))
			}
		}
	}
	return nil
}

// reduceSpan runs a binomial reduction over the span base+i·stride into
// member 0's acc (modified in place). Non-member ranks and members that
// hand off their partial return done=false.
func reduceSpan(c Comm, root, base, stride, count, tag int, acc []float64, op ReduceOp) (done bool, err error) {
	size := c.Size()
	me := vrank(c.Rank(), root, size)
	if me < base || (me-base)%stride != 0 {
		return false, nil
	}
	i := (me - base) / stride
	if i >= count {
		return false, nil
	}
	a := func(j int) int { return arank(base+j*stride, root, size) }
	buf := make([]byte, 8*len(acc))
	for mask := 1; mask < count; mask <<= 1 {
		if i&mask != 0 {
			packFloats(buf, acc)
			return false, c.Send(a(i-mask), tag, buf)
		}
		if peer := i + mask; peer < count {
			st, err := c.Recv(a(peer), tag, buf)
			if err != nil {
				return false, err
			}
			if st.Bytes != len(buf) {
				return false, fmt.Errorf("mp: reduce size mismatch from rank %d", st.Source)
			}
			other := unpackFloats(buf)
			for j := range acc {
				acc[j] = op(acc[j], other[j])
			}
		}
	}
	return true, nil
}

// hierBcast broadcasts in two stages over g-rank groups of the vrank space:
// the leader stage moves the payload across switches first (vranks 0, g,
// 2g, …, a binomial tree over group leaders — the long-haul hops all start
// immediately), then every leader fans out inside its own switch.
func hierBcast(c Comm, root int, buf []byte, g int) error {
	size := c.Size()
	v := vrank(c.Rank(), root, size)
	if err := bcastSpan(c, root, 0, g, size/g, tagHierL, buf); err != nil {
		return err
	}
	group := v / g
	return bcastSpan(c, root, group*g, 1, g, tagHierI, buf)
}

// hierReduce reduces in two stages: inside every switch onto the group
// leader, then across leaders onto the root. Over power-of-two groups of a
// power-of-two world this evaluates exactly the binomial reduce's combine
// tree — the intra stage is its low-mask rounds, the leader stage its
// high-mask rounds — so the root's bits match the flat schedule's.
func hierReduce(c Comm, root int, in []float64, op ReduceOp, g int) ([]float64, error) {
	size := c.Size()
	v := vrank(c.Rank(), root, size)
	acc := append([]float64(nil), in...)
	group := v / g
	lead, err := reduceSpan(c, root, group*g, 1, g, tagHierI, acc, op)
	if err != nil {
		return nil, err
	}
	if !lead {
		return nil, nil
	}
	done, err := reduceSpan(c, root, 0, g, size/g, tagHierL, acc, op)
	if err != nil || !done {
		return nil, err
	}
	return acc, nil
}
