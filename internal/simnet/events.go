package simnet

import (
	"math"
	"math/bits"
)

// keyed is a heap entry: id, ordered by the time t and then by tie. In a
// resource's ready heap t is the ready time and tie the activity ID itself;
// in the event queue's head heap t is a completion time, tie a start
// sequence number and id a duration class. Ties are unique within a heap,
// so each order is total and the pop sequence does not depend on the
// heap's shape — and no comparison dereferences an activity.
type keyed struct {
	t       float64
	tie, id int32
}

func (k keyed) before(l keyed) bool {
	return k.t < l.t || k.t == l.t && k.tie < l.tie
}

// keyedHeap is a binary min-heap of keyed entries. The push/pop functions
// are hand-rolled instead of container/heap because the latter boxes every
// pushed element into an interface — one allocation per scheduled
// activity. Both sift a hole instead of swapping, so each level costs one
// element move.
type keyedHeap []keyed

func (h *keyedHeap) push(k keyed) {
	*h = append(*h, k)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !k.before(s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = k
}

func (h *keyedHeap) pop() keyed {
	s := *h
	top := s[0]
	n := len(s) - 1
	x := s[n]
	*h = s[:n]
	if n > 0 {
		h.replaceTop(x)
	}
	return top
}

// replaceTop overwrites the minimum with k and restores the heap order.
func (h keyedHeap) replaceTop(k keyed) {
	n := len(h)
	i := 0
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(k) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = k
}

// eventQueue holds the in-flight activities, at most one per resource, and
// pops them in (End, start sequence) order.
//
// Run starts every activity at the current event time, so among
// activities of one duration a later start never ends earlier: each
// duration's in-flight activities, kept in start order, are already sorted
// by (End, start sequence). The queue therefore keeps one FIFO per
// distinct duration (a class) and a heap over the FIFO heads only. Pushing
// onto a non-empty FIFO touches no heap, and a pop sifts a heap of at most
// one entry per distinct in-flight duration instead of one per in-flight
// activity. Should every duration differ (fault jitter, per-node speeds),
// each FIFO holds one activity and the head heap is a heap of all of them.
//
// The FIFOs are threaded through flight, which is indexed by resource, and
// an open-addressing table maps a duration's bits to its class; classes
// that emptied are reclaimed when the table fills to half. So no class
// costs an allocation: the slices grow to a bound set by the number of
// resources and are reused across Runs.
type eventQueue struct {
	heads   keyedHeap  // per non-empty class: its head's (End, start sequence), id = class
	flight  []inFlight // flight[r]: resource r's running activity
	classes []durClass
	spare   []int32 // reclaimed classes, reused before classes grows
	table   []int32 // class+1 by duration-bits hash, linear probing; 0 = empty
	shift   uint8   // 64 − log2(len(table))
	used    int     // classes listed in table
	seq     int32   // start sequence of the next push
}

// inFlight is one running activity, a link in its class's FIFO.
type inFlight struct {
	end  float64
	act  int32
	seq  int32
	next int32 // the resource whose activity follows in the FIFO, −1 at the tail
}

// durClass is the FIFO of the in-flight activities of one duration.
type durClass struct {
	bits       uint64 // math.Float64bits of the duration
	head, tail int32  // resources at both ends, −1 when empty
}

// reset empties the queue for a Run over nres resources.
func (q *eventQueue) reset(nres int) {
	q.heads = q.heads[:0]
	if cap(q.flight) < nres {
		q.flight = make([]inFlight, nres)
	} else {
		q.flight = q.flight[:nres]
	}
	q.classes = q.classes[:0]
	q.spare = q.spare[:0]
	q.used = 0
	q.seq = 0
	// Half the table holds at least twice the live classes (at most
	// nres), so after a reclaim at least nres new classes fit before the
	// next one: a reclaim costs O(1) amortized per class.
	size := 8
	for size < 4*nres {
		size *= 2
	}
	if cap(q.table) < size {
		q.table = make([]int32, size)
	} else {
		q.table = q.table[:size]
		clear(q.table)
	}
	q.shift = uint8(64 - bits.TrailingZeros(uint(size)))
}

func (q *eventQueue) empty() bool { return len(q.heads) == 0 }

// push enqueues activity act, running on resource r until end, as the next
// start in sequence.
func (q *eventQueue) push(r, act int32, end, duration float64) {
	q.flight[r] = inFlight{end: end, act: act, seq: q.seq, next: -1}
	c := q.classOf(math.Float64bits(duration))
	cl := &q.classes[c]
	if cl.head < 0 {
		cl.head, cl.tail = r, r
		q.heads.push(keyed{t: end, tie: q.seq, id: c})
	} else {
		q.flight[cl.tail].next = r
		cl.tail = r
	}
	q.seq++
}

// pop dequeues the earliest-ending activity (the earliest-started among
// equal ends) and returns it with its resource and end time.
func (q *eventQueue) pop() (act, r int32, end float64) {
	c := q.heads[0].id
	cl := &q.classes[c]
	r = cl.head
	f := &q.flight[r]
	if f.next < 0 {
		cl.head, cl.tail = -1, -1
		q.heads.pop()
	} else {
		cl.head = f.next
		n := &q.flight[f.next]
		q.heads.replaceTop(keyed{t: n.end, tie: n.seq, id: c})
	}
	return f.act, r, f.end
}

// classOf returns the class of the duration with the given bits, making
// one if none is listed.
func (q *eventQueue) classOf(b uint64) int32 {
	mask := uint64(len(q.table) - 1)
	i := (b * 0x9e3779b97f4a7c15) >> q.shift
	for ; q.table[i] != 0; i = (i + 1) & mask {
		if c := q.table[i] - 1; q.classes[c].bits == b {
			return c
		}
	}
	if 2*(q.used+1) > len(q.table) {
		q.reclaim()
		return q.classOf(b)
	}
	var c int32
	if n := len(q.spare); n > 0 {
		c = q.spare[n-1]
		q.spare = q.spare[:n-1]
	} else {
		c = int32(len(q.classes))
		q.classes = append(q.classes, durClass{})
	}
	q.classes[c] = durClass{bits: b, head: -1, tail: -1}
	q.table[i] = c + 1
	q.used++
	return c
}

// reclaim rebuilds the table from the non-empty classes and puts the empty
// ones up for reuse.
func (q *eventQueue) reclaim() {
	clear(q.table)
	q.spare = q.spare[:0]
	q.used = 0
	mask := uint64(len(q.table) - 1)
	for c := range q.classes {
		cl := &q.classes[c]
		if cl.head < 0 {
			q.spare = append(q.spare, int32(c))
			continue
		}
		i := (cl.bits * 0x9e3779b97f4a7c15) >> q.shift
		for q.table[i] != 0 {
			i = (i + 1) & mask
		}
		q.table[i] = int32(c) + 1
		q.used++
	}
}
