package mp

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refMailbox is the matching rule written down the obvious way — the
// mailbox this package used before its queues were indexed: two slices in
// arrival/post order, scanned front to back, first candidate wins. The
// differential test holds the indexed mailbox to it.
type refMailbox struct {
	unexpected []refMsg
	posted     []*refOp
	failErr    error
}

type refMsg struct{ src, tag, id int }

type refOp struct {
	src, tag int
	done     bool
	got      int // id of the matched message
	err      error
}

func (op *refOp) admits(m refMsg) bool {
	return (op.src == AnySource || op.src == m.src) && (op.tag == AnyTag || op.tag == m.tag)
}

func (mb *refMailbox) deliver(m refMsg) error {
	if mb.failErr != nil {
		return mb.failErr
	}
	for i, op := range mb.posted {
		if op.admits(m) {
			mb.posted = append(mb.posted[:i], mb.posted[i+1:]...)
			op.done, op.got = true, m.id
			return nil
		}
	}
	mb.unexpected = append(mb.unexpected, m)
	return nil
}

func (mb *refMailbox) post(op *refOp) error {
	if mb.failErr != nil {
		return mb.failErr
	}
	for i, m := range mb.unexpected {
		if op.admits(m) {
			mb.unexpected = append(mb.unexpected[:i], mb.unexpected[i+1:]...)
			op.done, op.got = true, m.id
			return nil
		}
	}
	mb.posted = append(mb.posted, op)
	return nil
}

func (mb *refMailbox) cancel(op *refOp, err error) bool {
	for i, o := range mb.posted {
		if o == op {
			mb.posted = append(mb.posted[:i], mb.posted[i+1:]...)
			op.done, op.err = true, err
			return true
		}
	}
	return false
}

func (mb *refMailbox) poison(err error) {
	if mb.failErr != nil {
		return
	}
	mb.failErr = err
	for _, op := range mb.posted {
		op.done, op.err = true, err
	}
	mb.posted, mb.unexpected = nil, nil
}

// TestMailboxMatchesReferenceModel drives the indexed mailbox and the
// linear-scan reference with the same seeded interleaving of deliver, post,
// cancel and poison over specific and wildcard patterns, and requires the
// same outcomes throughout: which message each receive got (the payload is
// the message's id), with which status, or which error.
func TestMailboxMatchesReferenceModel(t *testing.T) {
	const ranks, tags, steps = 3, 4, 4000
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mb, ref := newMailbox(ranks), &refMailbox{}
		type pair struct {
			op  *recvOp
			ref *refOp
		}
		var ops []pair
		pattern := func(n int) int { // a specific value, or now and then the wildcard
			if rng.Intn(4) == 0 {
				return -1
			}
			return rng.Intn(n)
		}
		for step := 0; step < steps; step++ {
			switch r := rng.Intn(100); {
			case r < 45:
				m := refMsg{src: rng.Intn(ranks), tag: rng.Intn(tags), id: step}
				// Payload sizes straddle the envelope's inline buffer.
				data := make([]byte, 8+(step%3)*inlinePayload)
				data[0], data[1], data[2] = byte(step), byte(step>>8), byte(step>>16)
				if got, want := mb.deliver(m.src, m.tag, data, nil), ref.deliver(m); got != want {
					t.Fatalf("seed %d step %d: deliver = %v, reference %v", seed, step, got, want)
				}
			case r < 90:
				src, tag := pattern(ranks), pattern(tags)
				op := &recvOp{src: src, tag: tag, buf: make([]byte, 8+2*inlinePayload)}
				rop := &refOp{src: src, tag: tag}
				if got, want := mb.post(op), ref.post(rop); got != want {
					t.Fatalf("seed %d step %d: post = %v, reference %v", seed, step, got, want)
				}
				ops = append(ops, pair{op, rop})
			case r < 99 && len(ops) > 0:
				p := ops[rng.Intn(len(ops))]
				if got, want := mb.cancel(p.op, ErrDeadline), ref.cancel(p.ref, ErrDeadline); got != want {
					t.Fatalf("seed %d step %d: cancel = %v, reference %v", seed, step, got, want)
				}
			case r == 99 && rng.Intn(20) == 0:
				mb.poison(ErrClosed)
				ref.poison(ErrClosed)
			}
			if step%64 != 0 && step != steps-1 {
				continue // outcomes are final once set, so a divergence is still there at the next check
			}
			for i, p := range ops {
				done, st, err := p.op.Test()
				if done != p.ref.done || err != p.ref.err {
					t.Fatalf("seed %d step %d: receive %d (%d,%d) done=%v err=%v, reference done=%v err=%v",
						seed, step, i, p.ref.src, p.ref.tag, done, err, p.ref.done, p.ref.err)
				}
				if !done || err != nil {
					continue
				}
				b := p.op.buf
				if id := int(b[0]) | int(b[1])<<8 | int(b[2])<<16; id != p.ref.got {
					t.Fatalf("seed %d step %d: receive %d (%d,%d) matched message %d, reference %d",
						seed, step, i, p.ref.src, p.ref.tag, id, p.ref.got)
				}
				if want := 8 + (p.ref.got%3)*inlinePayload; st.Bytes != want || !p.ref.admits(refMsg{src: st.Source, tag: st.Tag}) {
					t.Fatalf("seed %d step %d: receive %d status %+v for message %d", seed, step, i, st, p.ref.got)
				}
			}
		}
	}
}

// backlogCost is the per-round-trip cost of a ping-pong between ranks 0 and
// 1 while `backlog` messages rank 1 never asks for sit in its mailbox ahead
// of every ping: the best of a few timed batches, after one round that
// pays for indexing the backlog (the index is built once, on the first
// receive that has to look past the head).
func backlogCost(launch func(n int, fn func(Comm) error) error, backlog int) (time.Duration, error) {
	const rounds, batches = 500, 5
	var best time.Duration
	err := launch(2, func(c Comm) error {
		peer := 1 - c.Rank()
		buf := make([]byte, 8)
		if c.Rank() == 0 {
			for m := 0; m < backlog; m++ {
				if err := c.Send(1, 10+m, buf); err != nil {
					return err
				}
			}
		}
		for b := 0; b <= batches; b++ {
			start := time.Now()
			for r := 0; r < rounds; r++ {
				if c.Rank() == 0 {
					if err := c.Send(peer, 0, buf); err != nil {
						return err
					}
				}
				if _, err := c.Recv(peer, 0, buf); err != nil {
					return err
				}
				if c.Rank() == 1 {
					if err := c.Send(peer, 0, buf); err != nil {
						return err
					}
				}
			}
			if el := time.Since(start); c.Rank() == 0 && b > 0 && (best == 0 || el < best) {
				best = el
			}
		}
		return c.Barrier()
	})
	return best / rounds, err
}

// TestBacklogCostFlat is the property ROADMAP item 1a asks for: what a
// message costs to post and deliver does not grow with the number of
// messages queued ahead of it. With the linear-scan mailbox every receive
// walked the whole backlog — 10⁵ entries, several times the cost of the
// round trip itself.
func TestBacklogCostFlat(t *testing.T) {
	transports := []struct {
		name   string
		launch func(n int, fn func(Comm) error) error
	}{
		{"inproc", Launch},
		{"tcp", func(n int, fn func(Comm) error) error { return launchTCP(t, n, fn) }},
	}
	for _, tr := range transports {
		var costs []time.Duration
		for try := 0; try < 3; try++ { // a noisy neighbour can spoil one comparison, not three
			empty, err := backlogCost(tr.launch, 1)
			if err != nil {
				t.Fatalf("%s: %v", tr.name, err)
			}
			full, err := backlogCost(tr.launch, 100000)
			if err != nil {
				t.Fatalf("%s: %v", tr.name, err)
			}
			costs = append(costs, empty, full)
			if full <= 2*empty {
				break
			}
		}
		if n := len(costs); costs[n-1] > 2*costs[n-2] {
			t.Errorf("%s: round trip behind a backlog of 1 / 10⁵ messages (per try): %v", tr.name, costs)
		} else {
			t.Logf("%s: round trip behind a backlog of 1 / 10⁵ messages: %v / %v", tr.name, costs[n-2], costs[n-1])
		}
	}
}

// TestMailboxOutOfOrderBacklog: consuming a long backlog in the reverse of
// its arrival order — the worst case for the per-source index, every
// receive looks past the head — still matches every message to its
// receive, and in time linear in the backlog, not quadratic.
func TestMailboxOutOfOrderBacklog(t *testing.T) {
	const n = 50000
	mb := newMailbox(1)
	for m := 0; m < n; m++ {
		if err := mb.deliver(0, m, []byte{byte(m)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	order := rand.New(rand.NewSource(1)).Perm(n)
	sort.Sort(sort.Reverse(sort.IntSlice(order[:n/2]))) // half strictly reversed, half random
	start := time.Now()
	buf := make([]byte, 1)
	for _, m := range order {
		st, err := mb.recv(0, m, buf, time.Second)
		if err != nil || st.Tag != m || buf[0] != byte(m) {
			t.Fatalf("receive for tag %d: status %+v payload %d err %v", m, st, buf[0], err)
		}
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("draining %d messages out of order took %v", n, el)
	}
	if _, err := mb.recv(0, 0, buf, time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Errorf("receive on the drained mailbox: %v, want ErrDeadline", err)
	}
	if q := &mb.unexpected[0]; q.head != nil || q.tail != nil || q.unindexed != nil || len(q.byTag) != 0 {
		t.Errorf("drained queue still holds head %v tail %v unindexed %v, %d tags indexed", q.head, q.tail, q.unindexed, len(q.byTag))
	}
}
