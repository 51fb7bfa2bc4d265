package mp

import (
	"fmt"
	"sync"
	"time"
)

// World is an in-process communicator fabric: Size ranks backed by
// goroutines in one address space, with a shared mailbox per rank.
type World struct {
	n      int
	opts   WorldOptions
	boxes  []*mailbox
	comms  []*inprocComm
	bar    barrier
	ab     *aborter
	mu     sync.Mutex
	closed bool
}

// WorldOptions tunes the in-process fabric.
type WorldOptions struct {
	// RendezvousThreshold switches sends of payloads strictly larger than
	// this many bytes to rendezvous (synchronous) mode: the send request
	// completes only when the receiver matches it, like MPICH's large-
	// message protocol. Negative (the default via NewWorld) means always
	// eager; 0 means every send is rendezvous.
	RendezvousThreshold int
	// Deadline, when positive, bounds every blocking wait (Recv,
	// Request.Wait, Barrier) on every rank: a wait that exceeds it fails
	// with ErrDeadline. Zero (the default) means waits block forever.
	Deadline time.Duration
}

// NewWorld creates an all-eager fabric with n ranks and returns the
// per-rank endpoints.
func NewWorld(n int) (*World, []Comm, error) {
	return NewWorldOpts(n, WorldOptions{RendezvousThreshold: -1})
}

// NewWorldOpts is NewWorld with explicit options.
func NewWorldOpts(n int, opts WorldOptions) (*World, []Comm, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("mp: world size must be positive, got %d", n)
	}
	w := &World{n: n, opts: opts, boxes: make([]*mailbox, n), comms: make([]*inprocComm, n), ab: newAborter()}
	w.bar.init(n)
	comms := make([]Comm, n)
	for i := 0; i < n; i++ {
		w.boxes[i] = newMailbox(n)
		w.comms[i] = &inprocComm{world: w, rank: i}
		comms[i] = w.comms[i]
	}
	return w, comms, nil
}

// Close shuts down the fabric; pending receives fail with ErrClosed.
func (w *World) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	for _, mb := range w.boxes {
		mb.close()
	}
	w.bar.close()
	return nil
}

// abort poisons every mailbox and the barrier with e; shared memory plays
// the role of the TCP transport's dissemination tree.
func (w *World) abort(e *AbortError) {
	if !w.ab.abort(e) {
		return
	}
	for _, mb := range w.boxes {
		mb.poison(e)
	}
	w.bar.fail(e)
}

// Launch runs fn on every rank of a fresh n-rank world, one goroutine per
// rank, and waits for all to finish. It returns the first non-nil error by
// rank order. The world is closed before returning.
func Launch(n int, fn func(c Comm) error) error {
	return LaunchOpts(n, WorldOptions{RendezvousThreshold: -1}, fn)
}

// LaunchOpts is Launch on a world with explicit options.
func LaunchOpts(n int, opts WorldOptions, fn func(c Comm) error) error {
	w, comms, err := NewWorldOpts(n, opts)
	if err != nil {
		return err
	}
	defer w.Close()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(comms[rank])
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("mp: rank %d: %w", i, e)
		}
	}
	return nil
}

// inprocComm is one rank's endpoint of a World.
type inprocComm struct {
	world  *World
	rank   int
	mu     sync.Mutex
	closed bool
}

func (c *inprocComm) Rank() int { return c.rank }
func (c *inprocComm) Size() int { return c.world.n }

func (c *inprocComm) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

func (c *inprocComm) Send(dst, tag int, data []byte) error {
	req, err := c.Isend(dst, tag, data)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

func (c *inprocComm) Isend(dst, tag int, data []byte) (Request, error) {
	if c.isClosed() {
		return nil, ErrClosed
	}
	if err := checkRank(dst, c.world.n, "destination"); err != nil {
		return nil, err
	}
	if err := checkTag(tag, false); err != nil {
		return nil, err
	}
	// deliver copies the payload — into the posted receive's buffer, or
	// into the mailbox's own (the MPI system-buffer copy of the paper's
	// A1/B3) — so the caller may reuse its buffer immediately.
	box := c.world.boxes[dst]
	if t := c.world.opts.RendezvousThreshold; t >= 0 && len(data) > t {
		// Rendezvous mode: the request completes when the receiver matches.
		op := newSendOp()
		op.deadline = c.world.opts.Deadline
		if err := box.deliver(c.rank, tag, data, op); err != nil {
			return nil, err
		}
		return op, nil
	}
	return eagerSend(box.deliver(c.rank, tag, data, nil))
}

func (c *inprocComm) Recv(src, tag int, buf []byte) (Status, error) {
	if err := c.checkRecv(src, tag); err != nil {
		return Status{}, err
	}
	return c.world.boxes[c.rank].recv(src, tag, buf, c.world.opts.Deadline)
}

func (c *inprocComm) checkRecv(src, tag int) error {
	if c.isClosed() {
		return ErrClosed
	}
	if err := checkSource(src, c.world.n); err != nil {
		return err
	}
	return checkTag(tag, true)
}

func (c *inprocComm) Irecv(src, tag int, buf []byte) (Request, error) {
	if err := c.checkRecv(src, tag); err != nil {
		return nil, err
	}
	return c.world.boxes[c.rank].irecv(src, tag, buf, c.world.opts.Deadline)
}

func (c *inprocComm) RecvInit(src int, buf []byte) (Persistent, error) {
	if err := c.checkRecv(src, 0); err != nil {
		return nil, err
	}
	return c.world.boxes[c.rank].recvInit(src, buf, c.world.opts.Deadline, c.isClosed), nil
}

func (c *inprocComm) Barrier() error {
	if c.isClosed() {
		return ErrClosed
	}
	return c.world.bar.await(c.world.opts.Deadline)
}

func (c *inprocComm) Abort(cause error) error {
	if c.isClosed() {
		return ErrClosed
	}
	c.world.abort(&AbortError{Rank: c.rank, Cause: cause})
	return nil
}

func (c *inprocComm) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// barrier is a reusable n-party barrier. A latched failure (close or abort)
// releases current waiters and fails all future arrivals.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	count   int
	gen     int
	failErr error
}

func (b *barrier) init(n int) {
	b.n = n
	b.cond = sync.NewCond(&b.mu)
}

// await blocks until all n parties arrive. With a positive deadline the
// wait is bounded: on expiry this party withdraws its arrival (so a phantom
// arrival cannot complete a later generation) and returns ErrDeadline.
func (b *barrier) await(deadline time.Duration) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.failErr != nil {
		return b.failErr
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return nil
	}
	var expired bool
	if deadline > 0 {
		timer := time.AfterFunc(deadline, func() {
			b.mu.Lock()
			expired = true
			b.cond.Broadcast()
			b.mu.Unlock()
		})
		defer timer.Stop()
	}
	for gen == b.gen && b.failErr == nil {
		if expired {
			b.count--
			return ErrDeadline
		}
		b.cond.Wait()
	}
	if b.failErr != nil && gen == b.gen {
		return b.failErr
	}
	return nil
}

// fail latches err (first failure wins) and releases every waiter.
func (b *barrier) fail(err error) {
	b.mu.Lock()
	if b.failErr == nil {
		b.failErr = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *barrier) close() { b.fail(ErrClosed) }
