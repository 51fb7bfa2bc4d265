package mp

import (
	"sync"
	"time"
)

// inlinePayload is the largest payload an envelope stores in its own
// allocation (the "eager short" message of an MPI implementation).
const inlinePayload = 64

// envelope is an unexpected message waiting in a mailbox for its receive.
type envelope struct {
	src  int
	tag  int
	data []byte // owned copy
	seq  uint64 // arrival number, shared with the posted receives
	// matched, when non-nil, is signalled once a receive consumes the
	// envelope — the completion hook for rendezvous-mode sends.
	matched *sendOp

	// Links of the source's srcQueue; guarded by the mailbox lock.
	prev, next *envelope // arrival order
	nextTag    *envelope // next indexed message with the same tag
	indexed    bool

	inline [inlinePayload]byte
}

// sendOp is the waitable handle of a rendezvous send: it completes when the
// receiver matches the message, like MPI's synchronous-mode MPI_Ssend.
// Completion is published by closing ch, so waiters can select against a
// deadline timer or an abort latch; err is stable once ch is closed.
type sendOp struct {
	deadline time.Duration // 0 = wait forever

	mu   sync.Mutex
	done bool
	ch   chan struct{}
	err  error
}

func newSendOp() *sendOp {
	return &sendOp{ch: make(chan struct{})}
}

func (op *sendOp) complete(err error) {
	op.mu.Lock()
	if !op.done {
		op.done = true
		op.err = err
		close(op.ch)
	}
	op.mu.Unlock()
}

// Wait implements Request for rendezvous sends. With a deadline configured
// it returns ErrDeadline once the deadline passes; the send itself stays
// pending (the message remains deliverable) and a later Wait can still
// observe its completion.
func (op *sendOp) Wait() (Status, error) {
	select {
	case <-op.ch:
		return Status{}, op.err
	default:
	}
	if op.deadline <= 0 {
		<-op.ch
		return Status{}, op.err
	}
	timer := time.NewTimer(op.deadline)
	defer timer.Stop()
	select {
	case <-op.ch:
		return Status{}, op.err
	case <-timer.C:
		return Status{}, ErrDeadline
	}
}

// Test implements Request for rendezvous sends.
func (op *sendOp) Test() (bool, Status, error) {
	select {
	case <-op.ch:
		return true, Status{}, op.err
	default:
		return false, Status{}, nil
	}
}

// recvOp is a posted receive awaiting a match. Whoever takes the op out of
// the mailbox's posted queue (a match, a cancel, a poison) owns its one
// completion; status/err are stable from then on. A waiter that arrives
// first makes ch and blocks on it for the completion token — a receive
// whose message beat it to the mailbox never needs the channel. mb points
// back at the mailbox the op is posted in so a deadline expiry can withdraw
// it from the matching queue.
type recvOp struct {
	src int // AnySource allowed
	tag int // AnyTag allowed
	buf []byte

	mb       *mailbox
	deadline time.Duration // 0 = wait forever
	// keepTimer marks a persistent op, which has one waiter at a time:
	// its Wait keeps the deadline timer in timer and resets it instead of
	// making a new one.
	keepTimer bool
	timer     *time.Timer

	// Position in the mailbox's posted queue; guarded by mb.mu.
	seq        uint64
	prev, next *recvOp
	queued     bool

	mu     sync.Mutex
	done   bool
	ch     chan struct{} // capacity 1, made by the first waiter that has to block
	status Status
	err    error
}

// recvOps recycles the ops of blocking receives, which never leave the
// package: Recv posts one, waits on it and hands it back, so a steady
// stream of receives allocates neither an op nor a channel.
var recvOps = sync.Pool{New: func() any { return new(recvOp) }}

// finish publishes the op's outcome and wakes the waiter.
func (op *recvOp) finish(st Status, err error) {
	op.mu.Lock()
	if !op.done {
		op.status, op.err, op.done = st, err, true
		if op.ch != nil {
			op.ch <- struct{}{}
		}
	}
	op.mu.Unlock()
}

// complete copies a matched message into the buffer and wakes the waiter.
func (op *recvOp) complete(src, tag int, data []byte) {
	var err error
	if len(data) > len(op.buf) {
		err = ErrTruncated
	} else {
		copy(op.buf, data)
	}
	op.finish(Status{Source: src, Tag: tag, Bytes: len(data)}, err)
}

func (op *recvOp) fail(err error) { op.finish(Status{}, err) }

// Test implements Request for receives.
func (op *recvOp) Test() (bool, Status, error) {
	op.mu.Lock()
	defer op.mu.Unlock()
	return op.done, op.status, op.err
}

// Wait implements Request for receives, honoring the op's deadline: on
// expiry the receive is withdrawn from the mailbox and fails with
// ErrDeadline. A withdrawal that loses the race against an in-flight match
// returns the match instead.
func (op *recvOp) Wait() (Status, error) {
	op.mu.Lock()
	if op.done {
		defer op.mu.Unlock()
		return op.status, op.err
	}
	if op.ch == nil {
		op.ch = make(chan struct{}, 1)
	}
	op.mu.Unlock()
	if op.deadline > 0 {
		start := time.Now()
		timer := op.deadlineTimer()
		defer timer.Stop()
		for expired := false; !expired; {
			select {
			case <-op.ch:
				op.ch <- struct{}{}
				return op.status, op.err
			case <-timer.C:
			}
			// A kept timer's channel may still deliver the tick of an
			// earlier Wait that its Stop came too late for (the module's
			// timers predate Go 1.23's synchronous channels); such a tick
			// comes early, and the timer is set again for the rest.
			if rest := op.deadline - time.Since(start); rest > 0 {
				timer.Reset(rest)
			} else {
				expired = true
			}
		}
		op.mb.cancel(op, ErrDeadline) // false: a match is completing it right now
	}
	// The token goes straight back so any other waiter on the same request
	// wakes too.
	<-op.ch
	op.ch <- struct{}{}
	return op.status, op.err
}

// deadlineTimer starts the timer of one deadline-bounded Wait. A
// persistent op keeps its timer and resets it; an Irecv's op may have
// concurrent waiters, so each of them gets its own.
func (op *recvOp) deadlineTimer() *time.Timer {
	switch {
	case !op.keepTimer:
		return time.NewTimer(op.deadline)
	case op.timer == nil:
		op.timer = time.NewTimer(op.deadline)
	default:
		op.timer.Reset(op.deadline)
	}
	return op.timer
}

// persistentRecv is the Persistent both transports' RecvInit return: one
// recvOp that every Start re-arms and posts again, so a loop of receives
// allocates nothing once it is made.
type persistentRecv struct {
	recvOp
	closed func() bool // the endpoint's own closed flag; nil where closing poisons the mailbox
}

// Start implements Persistent. A done op is in no posted queue (whoever
// finished it took it out first), so it can be re-armed without the
// mailbox lock. A refused Start (a bad tag, a closed endpoint) ends its
// round at once with the refusal, so the round's Wait reports that and not
// the previous round's message.
func (p *persistentRecv) Start(tag int) error {
	refused := checkTag(tag, true)
	if refused == nil && p.closed != nil && p.closed() {
		refused = ErrClosed
	}
	op := &p.recvOp
	op.mu.Lock()
	if !op.done {
		op.mu.Unlock()
		return ErrActive
	}
	op.tag, op.status, op.err, op.done = tag, Status{}, refused, refused != nil
	if op.ch != nil { // the token the last round's Wait handed back
		select {
		case <-op.ch:
		default:
		}
	}
	op.mu.Unlock()
	if refused != nil {
		return refused
	}
	if err := op.mb.post(op); err != nil {
		op.fail(err)
		return err
	}
	return nil
}

// matchKey is a receive pattern, wildcards included; posted receives queue
// in one FIFO per pattern.
type matchKey struct{ src, tag int }

func (k matchKey) wild() bool { return k.src == AnySource || k.tag == AnyTag }

// opQueue is an intrusive FIFO of posted receives, stored by value in the
// mailbox's map; an empty queue's key is deleted.
type opQueue struct{ head, tail *recvOp }

// srcQueue holds the unexpected messages of one source in arrival order,
// with an index by tag that is built only when it is needed: a receiver
// that consumes a source's messages in the order they were sent — every
// tile loop — finds each at the head and never touches the index, and the
// first receive that asks out of order indexes what has arrived since the
// last one did. Every message is indexed at most once, so a match costs
// O(1) amortised however long the backlog is.
type srcQueue struct {
	head, tail *envelope
	unindexed  *envelope        // oldest message not in byTag yet; everything after it is not either
	byTag      map[int]tagChain // the indexed messages of each tag, oldest first
}

// tagChain links the indexed messages of one tag through nextTag.
type tagChain struct{ head, tail *envelope }

func (q *srcQueue) push(e *envelope) {
	if e.prev = q.tail; q.tail == nil {
		q.head = e
	} else {
		q.tail.next = e
	}
	q.tail = e
	if q.unindexed == nil {
		q.unindexed = e
	}
}

// oldest returns the oldest message carrying tag (AnyTag: the oldest of
// all) without removing it.
func (q *srcQueue) oldest(tag int) *envelope {
	if q.head == nil || tag == AnyTag || q.head.tag == tag {
		return q.head
	}
	if c, ok := q.byTag[tag]; ok {
		return c.head
	}
	for e := q.unindexed; e != nil; e = e.next {
		if e.tag == tag {
			q.unindexed = e
			return e
		}
		if q.byTag == nil {
			q.byTag = make(map[int]tagChain)
		}
		c := q.byTag[e.tag]
		if c.tail == nil {
			c.head = e
		} else {
			c.tail.nextTag = e
		}
		c.tail, e.indexed = e, true
		q.byTag[e.tag] = c
	}
	q.unindexed = nil
	return nil
}

// remove unlinks e, which oldest returned: the first of its tag.
func (q *srcQueue) remove(e *envelope) {
	if e.prev == nil {
		q.head = e.next
	} else {
		e.prev.next = e.next
	}
	if e.next == nil {
		q.tail = e.prev
	} else {
		e.next.prev = e.prev
	}
	if q.unindexed == e {
		q.unindexed = e.next
	}
	if e.indexed {
		if c := q.byTag[e.tag]; e.nextTag == nil {
			delete(q.byTag, e.tag)
		} else {
			c.head = e.nextTag
			q.byTag[e.tag] = c
		}
	}
	e.prev, e.next, e.nextTag = nil, nil, nil
}

// mailbox performs MPI-style (source, tag) matching for one rank. Messages
// and receives carry one shared arrival/post sequence number; unexpected
// messages wait in a queue per source (srcQueue), posted receives in a FIFO
// per pattern, so the specific match every tile loop makes is O(1) however
// long the backlog is. Matching always prefers the oldest candidate — for a
// wildcard that is the lowest sequence number among the queues it admits —
// which yields the non-overtaking guarantee per (source, tag) pair.
type mailbox struct {
	mu         sync.Mutex
	seq        uint64
	unexpected []srcQueue // by source rank
	posted     map[matchKey]opQueue
	wildPosted int   // posted receives with a wildcard in their pattern
	failErr    error // ErrClosed or an *AbortError; nil while healthy
}

// newMailbox returns the mailbox of one rank in a world of n.
func newMailbox(n int) *mailbox {
	return &mailbox{unexpected: make([]srcQueue, n), posted: make(map[matchKey]opQueue)}
}

// deliver hands a message to the oldest matching posted receive, copying
// data straight into the receive's buffer, or queues a copy of it as
// unexpected. data is only borrowed for the call. matched, when non-nil, is
// completed once a receive consumes the message.
func (mb *mailbox) deliver(src, tag int, data []byte, matched *sendOp) error {
	mb.mu.Lock()
	if mb.failErr != nil {
		err := mb.failErr
		mb.mu.Unlock()
		if matched != nil {
			matched.complete(err)
		}
		return err
	}
	if op := mb.takePosted(src, tag); op != nil {
		mb.mu.Unlock()
		op.complete(src, tag, data)
		if matched != nil {
			matched.complete(nil)
		}
		return nil
	}
	mb.seq++
	e := &envelope{src: src, tag: tag, matched: matched, seq: mb.seq}
	if len(data) <= inlinePayload {
		e.data = e.inline[:len(data)]
	} else {
		e.data = make([]byte, len(data))
	}
	copy(e.data, data)
	mb.unexpected[src].push(e)
	mb.mu.Unlock()
	return nil
}

// takePosted removes and returns the oldest posted receive that admits
// (src, tag): the lowest-numbered head among the four patterns that can.
func (mb *mailbox) takePosted(src, tag int) *recvOp {
	best, ok := mb.posted[matchKey{src, tag}]
	if mb.wildPosted > 0 {
		for _, k := range [...]matchKey{{AnySource, tag}, {src, AnyTag}, {AnySource, AnyTag}} {
			if q, found := mb.posted[k]; found && (!ok || q.head.seq < best.head.seq) {
				best, ok = q, true
			}
		}
	}
	if !ok {
		return nil
	}
	mb.unpost(best.head)
	return best.head
}

// unpost unlinks op from its posted queue.
func (mb *mailbox) unpost(op *recvOp) {
	k := matchKey{op.src, op.tag}
	q := mb.posted[k]
	if op.prev == nil {
		q.head = op.next
	} else {
		op.prev.next = op.next
	}
	if op.next == nil {
		q.tail = op.prev
	} else {
		op.next.prev = op.prev
	}
	op.prev, op.next, op.queued = nil, nil, false
	if q.head == nil {
		delete(mb.posted, k)
	} else {
		mb.posted[k] = q
	}
	if k.wild() {
		mb.wildPosted--
	}
}

// takeUnexpected removes and returns the oldest queued message pattern k
// admits; AnySource compares the candidates of every source.
func (mb *mailbox) takeUnexpected(k matchKey) *envelope {
	if k.src != AnySource {
		q := &mb.unexpected[k.src]
		e := q.oldest(k.tag)
		if e != nil {
			q.remove(e)
		}
		return e
	}
	var best *envelope
	for src := range mb.unexpected {
		if e := mb.unexpected[src].oldest(k.tag); e != nil && (best == nil || e.seq < best.seq) {
			best = e
		}
	}
	if best != nil {
		mb.unexpected[best.src].remove(best)
	}
	return best
}

// post registers a receive, matching it immediately against queued
// unexpected messages if possible.
func (mb *mailbox) post(op *recvOp) error {
	mb.mu.Lock()
	if mb.failErr != nil {
		err := mb.failErr
		mb.mu.Unlock()
		return err
	}
	op.mb = mb
	k := matchKey{op.src, op.tag}
	if e := mb.takeUnexpected(k); e != nil {
		mb.mu.Unlock()
		op.complete(e.src, e.tag, e.data)
		if e.matched != nil {
			e.matched.complete(nil)
		}
		return nil
	}
	mb.seq++
	op.seq, op.queued = mb.seq, true
	q := mb.posted[k]
	if op.prev = q.tail; q.tail == nil {
		q.head = op
	} else {
		q.tail.next = op
	}
	q.tail = op
	mb.posted[k] = q
	if k.wild() {
		mb.wildPosted++
	}
	mb.mu.Unlock()
	return nil
}

// recv is the blocking receive both transports' Recv run: post, wait, and
// return the op to the pool.
func (mb *mailbox) recv(src, tag int, buf []byte, deadline time.Duration) (Status, error) {
	op := recvOps.Get().(*recvOp)
	op.src, op.tag, op.buf, op.deadline = src, tag, buf, deadline
	err := mb.post(op)
	var st Status
	if err == nil {
		st, err = op.Wait()
	}
	// Whoever completed the op may still be inside finish; the lock orders
	// the reset after it, and the token it left is taken back.
	op.mu.Lock()
	op.buf, op.done, op.err = nil, false, nil
	if op.ch != nil {
		select {
		case <-op.ch:
		default:
		}
	}
	op.mu.Unlock()
	recvOps.Put(op)
	return st, err
}

// irecv is the non-blocking receive both transports' Irecv run.
func (mb *mailbox) irecv(src, tag int, buf []byte, deadline time.Duration) (Request, error) {
	op := &recvOp{src: src, tag: tag, buf: buf, deadline: deadline}
	if err := mb.post(op); err != nil {
		return nil, err
	}
	return op, nil
}

// recvInit is the idle persistent receive both transports' RecvInit
// return: done, with a zero status, until its first Start.
func (mb *mailbox) recvInit(src int, buf []byte, deadline time.Duration, closed func() bool) *persistentRecv {
	p := &persistentRecv{closed: closed}
	p.src, p.buf, p.mb, p.deadline, p.keepTimer, p.done = src, buf, mb, deadline, true, true
	return p
}

// cancel withdraws a posted receive and fails it with err (the deadline
// path). It reports false when the op was no longer posted — i.e. a match
// completed it concurrently, which then takes precedence.
func (mb *mailbox) cancel(op *recvOp, err error) bool {
	mb.mu.Lock()
	if !op.queued {
		mb.mu.Unlock()
		return false
	}
	mb.unpost(op)
	mb.mu.Unlock()
	op.fail(err)
	return true
}

// poison fails every pending receive and unmatched rendezvous sender with
// err, and makes all future deliver/post calls fail the same way. The first
// poison wins (close() and Abort() both route here).
func (mb *mailbox) poison(err error) {
	mb.mu.Lock()
	if mb.failErr != nil {
		mb.mu.Unlock()
		return
	}
	mb.failErr = err
	var pend []*recvOp
	for _, q := range mb.posted {
		for op := q.head; op != nil; op = op.next {
			pend = append(pend, op)
		}
	}
	for _, op := range pend {
		op.prev, op.next, op.queued = nil, nil, false
	}
	unm := mb.unexpected
	mb.posted, mb.unexpected, mb.wildPosted = nil, nil, 0
	mb.mu.Unlock()
	for _, op := range pend {
		op.fail(err)
	}
	for _, q := range unm {
		for e := q.head; e != nil; e = e.next {
			if e.matched != nil {
				e.matched.complete(err)
			}
		}
	}
}

// close fails all pending receives and unmatched rendezvous senders.
func (mb *mailbox) close() { mb.poison(ErrClosed) }

// sendReq is the trivial already-complete Request returned by eager sends.
type sendReq struct{ err error }

// sent is the request of every eager send that succeeded, shared so that a
// send does not allocate one.
var sent Request = sendReq{}

// eagerSend is what Isend returns for a send that completed, with err, in
// the call itself.
func eagerSend(err error) (Request, error) {
	if err == nil {
		return sent, nil
	}
	return sendReq{err: err}, err
}

func (s sendReq) Wait() (Status, error)       { return Status{}, s.err }
func (s sendReq) Test() (bool, Status, error) { return true, Status{}, s.err }
