package mp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Internal control tags used by the TCP transport; user tags are >= 0.
const (
	ctlBarrierArrive  = -2
	ctlBarrierRelease = -3
	// ctlAbort disseminates a world abort over the binomial tree: payload
	// is the 4-byte origin rank followed by the cause string.
	ctlAbort = -4
	// ctlHeartbeat is the liveness probe; any frame proves liveness, the
	// probe only guarantees silence has a bound.
	ctlHeartbeat = -5
	// ctlGoodbye announces a clean departure: the peer's subsequent
	// connection teardown must not be mistaken for a crash.
	ctlGoodbye = -6
)

// maxFrameLen bounds a frame payload (64 MiB): a corrupt or hostile length
// header fails the frame instead of forcing a huge allocation.
const maxFrameLen = 64 << 20

const (
	// frameHdrLen is the frame header: src int32 | tag int32 | len int32.
	frameHdrLen = 12
	// sendBufSize bounds the frames queued per peer for its writer; a
	// sender that finds it full blocks, which is the transport's flow
	// control. Four times a 64 KiB face, so a tile's messages queue whole.
	sendBufSize = 256 << 10
	// ctlHeadroom is how far abort, heartbeat and goodbye frames may
	// overrun sendBufSize so they never wait behind a full data buffer;
	// past it they are dropped (they are best effort).
	ctlHeadroom = 4 << 10
	// recvBufSize is each reader's buffer: frames up to this size are
	// matched and copied out of it without an allocation of their own.
	recvBufSize = 64 << 10
	// closeDrain caps how long Close waits for queued frames to leave when
	// no IOTimeout bounds the writes.
	closeDrain = 3 * time.Second
)

// errBackedUp reports a best-effort control frame dropped because the
// peer's queue is past its bound: the peer has stopped reading.
var errBackedUp = errors.New("mp: peer send queue backed up, control frame dropped")

// TCPOptions tunes ConnectTCP.
type TCPOptions struct {
	// DialTimeout bounds how long a rank retries connecting to its peers
	// while the mesh comes up; it also bounds each handshake read/write.
	// Default 10s.
	DialTimeout time.Duration
	// DialBackoff is the initial retry backoff after a failed dial; it
	// doubles per attempt up to a 500ms cap, with ±25% deterministic
	// jitter so a cluster of late dialers doesn't stampede the listener.
	// Default 1ms: a refused dial usually means the peer process is still
	// starting, and its listener is about a millisecond away.
	DialBackoff time.Duration
	// IOTimeout, when positive, bounds every post-handshake socket write;
	// a peer that stops draining its socket then fails that peer's writer
	// (and every sender queued behind it) instead of wedging it forever.
	// Reads stay unbounded (an idle rank legitimately waits arbitrarily
	// long for the next message).
	IOTimeout time.Duration
	// Deadline, when positive, bounds every blocking wait (Recv,
	// Request.Wait, Barrier): a wait that exceeds it fails with
	// ErrDeadline. Zero means waits block forever.
	Deadline time.Duration
	// Heartbeat, when positive, starts a liveness probe: every interval
	// the rank pings each peer on a reserved control tag and checks when
	// it last heard from them; a peer silent for more than
	// HeartbeatMiss×Heartbeat triggers a world abort naming that peer.
	// Enabling heartbeats implies AbortOnDisconnect.
	Heartbeat time.Duration
	// HeartbeatMiss is how many silent intervals declare a peer dead.
	// Default 3.
	HeartbeatMiss int
	// AbortOnDisconnect makes a lost connection (without the clean
	// shutdown handshake Close performs) abort the world immediately,
	// naming the vanished peer — the fast failure signal for a killed
	// process, complementing the heartbeat's coverage of hangs.
	AbortOnDisconnect bool
	// Cancel, when non-nil, aborts a ConnectTCP still meshing up as soon
	// as the channel is closed: the listener and any half-built
	// connections are torn down and ConnectTCP returns an error. This is
	// how a launcher stops surviving ranks from waiting out the full dial
	// timeout for a rank that already failed.
	Cancel <-chan struct{}
	// OnEvent, when non-nil, observes transport lifecycle events: dial
	// retries and successes, accepted handshakes, handshake failures,
	// post-handshake frame-write errors, heartbeats, lost peers, and
	// aborts. It is called synchronously from the dial/accept, reader and
	// writer goroutines, so it must be safe for concurrent use and must
	// not block; obs.InstrumentComm uses it to feed the runtime TCP
	// counters.
	OnEvent func(TCPEvent)
	// Epoch is the world generation this endpoint belongs to. A supervisor
	// rebuilding a crashed world bumps the epoch on every relaunch; the
	// epoch is stamped into the connect handshake (a dialer from another
	// generation is refused without failing the mesh-up) and into every
	// reserved-tag control frame (a stale pre-crash abort, heartbeat or
	// goodbye is dropped instead of poisoning the rebuilt world). Zero is
	// a valid epoch: unsupervised runs never have more than one.
	Epoch uint32
}

// TCPEventKind classifies a TCPEvent.
type TCPEventKind int

const (
	// EvDialRetry: a dial attempt to Peer failed with Err and will be
	// retried after backoff (Attempt counts from 0).
	EvDialRetry TCPEventKind = iota
	// EvDialOK: the dial to Peer succeeded on attempt Attempt.
	EvDialOK
	// EvAcceptOK: an inbound connection completed its handshake as Peer.
	EvAcceptOK
	// EvHandshakeErr: a handshake read/write failed (Peer is -1 on the
	// accept side, where the peer's rank was never learned).
	EvHandshakeErr
	// EvWriteErr: a post-handshake socket write to Peer failed with Err.
	// Emitted once per peer: the failure is latched and every queued and
	// later send to that peer fails with the same error.
	EvWriteErr
	// EvHeartbeat: a liveness probe arrived from Peer.
	EvHeartbeat
	// EvPeerLost: the connection to Peer died (or its heartbeats stopped)
	// without a clean goodbye; Err describes how.
	EvPeerLost
	// EvAbort: the world aborted; Peer is the origin rank, Err the cause.
	EvAbort
	// EvStaleEpoch: a handshake or control frame stamped with another
	// world generation was rejected (Peer is the claimed rank, or -1 when
	// unknown; Err names the epochs).
	EvStaleEpoch
)

func (k TCPEventKind) String() string {
	switch k {
	case EvDialRetry:
		return "dial-retry"
	case EvDialOK:
		return "dial-ok"
	case EvAcceptOK:
		return "accept-ok"
	case EvHandshakeErr:
		return "handshake-err"
	case EvWriteErr:
		return "write-err"
	case EvHeartbeat:
		return "heartbeat"
	case EvPeerLost:
		return "peer-lost"
	case EvAbort:
		return "abort"
	case EvStaleEpoch:
		return "stale-epoch"
	default:
		return fmt.Sprintf("TCPEventKind(%d)", int(k))
	}
}

// TCPEvent is one transport lifecycle observation delivered to
// TCPOptions.OnEvent.
type TCPEvent struct {
	Kind TCPEventKind
	// Peer is the peer rank the event concerns, or -1 when unknown.
	Peer int
	// Attempt is the dial attempt number, counted from 0 (dial events
	// only).
	Attempt int
	// Err is the failure for error-kind events, nil otherwise.
	Err error
}

const (
	defaultDialTimeout   = 10 * time.Second
	defaultDialBackoff   = time.Millisecond
	maxDialBackoff       = 500 * time.Millisecond
	defaultHeartbeatMiss = 3

	// helloLen is the handshake a dialer sends: rank (int32) | epoch
	// (uint32). The acceptor answers with ackLen bytes: its own epoch.
	helloLen = 8
	ackLen   = 4
)

// EpochError reports a connect handshake between two world generations: a
// process from a pre-crash epoch reached a rebuilt world (or vice versa).
// errors.Is(err, ErrStaleEpoch) reports true for it.
type EpochError struct {
	Local, Remote uint32
}

func (e *EpochError) Error() string {
	return fmt.Sprintf("mp: epoch mismatch (local %d, remote %d)", e.Local, e.Remote)
}

// Is makes errors.Is(err, ErrStaleEpoch) match any EpochError.
func (e *EpochError) Is(target error) bool { return target == ErrStaleEpoch }

// tuneConn applies socket options to a mesh connection: TCP_NODELAY
// explicitly on (each peer's writer already coalesces whole frames into
// one write; Nagle on top would only delay the tail of the last one).
func tuneConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

// ConnectTCP joins rank `rank` of a `size`-rank communicator meshed over
// TCP. addrs[i] must be the listen address ("host:port") of rank i; every
// rank must use the same list. Rank i accepts connections from all higher
// ranks and dials all lower ranks, forming a full mesh.
//
// Failures during mesh-up tear the endpoint down completely: the listener
// and every connection accepted or dialed so far are closed before the
// error is returned, so a failed handshake leaks nothing.
func ConnectTCP(rank, size int, addrs []string, opts *TCPOptions) (Comm, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mp: world size must be positive, got %d", size)
	}
	if err := checkRank(rank, size, "own"); err != nil {
		return nil, err
	}
	if len(addrs) != size {
		return nil, fmt.Errorf("mp: got %d addresses for %d ranks", len(addrs), size)
	}
	timeout := defaultDialTimeout
	if opts != nil && opts.DialTimeout > 0 {
		timeout = opts.DialTimeout
	}
	backoff0 := defaultDialBackoff
	if opts != nil && opts.DialBackoff > 0 {
		backoff0 = opts.DialBackoff
	}

	c := &tcpComm{
		rank:     rank,
		size:     size,
		conns:    make([]*peerConn, size),
		box:      newMailbox(size),
		ab:       newAborter(),
		hbMiss:   defaultHeartbeatMiss,
		hbStop:   make(chan struct{}),
		departed: make([]atomic.Bool, size),
		lastSeen: make([]atomic.Int64, size),
	}
	if opts != nil {
		c.ioTimeout = opts.IOTimeout
		c.onEvent = opts.OnEvent
		c.deadline = opts.Deadline
		c.hbInterval = opts.Heartbeat
		if opts.HeartbeatMiss > 0 {
			c.hbMiss = opts.HeartbeatMiss
		}
		c.abortOnDisconnect = opts.AbortOnDisconnect || opts.Heartbeat > 0
		c.epoch = opts.Epoch
	}
	c.barCond = sync.NewCond(&c.barMu)

	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("mp: rank %d listen %s: %w", rank, addrs[rank], err)
	}
	c.listener = ln

	// Mesh-up failure machinery: the first error (or an external cancel)
	// closes `abort` and the listener, which unblocks the accept loop and
	// stops the dialers; the error path then closes every connection
	// registered so far via c.Close().
	var (
		wg        sync.WaitGroup
		abortOnce sync.Once
	)
	errCh := make(chan error, size+1)
	abort := make(chan struct{})
	fail := func(err error) {
		errCh <- err
		abortOnce.Do(func() {
			close(abort)
			ln.Close()
		})
	}
	meshDone := make(chan struct{})
	if opts != nil && opts.Cancel != nil {
		cancel := opts.Cancel
		go func() {
			select {
			case <-cancel:
				fail(fmt.Errorf("mp: rank %d: connect canceled", rank))
			case <-meshDone:
			case <-abort:
			}
		}()
	}

	// Accept from higher ranks and dial lower ranks concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for accepted := 0; accepted < size-rank-1; {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case <-abort: // tear-down in progress; not a new failure
				default:
					fail(fmt.Errorf("mp: rank %d accept: %w", rank, err))
				}
				return
			}
			tuneConn(conn)
			// The handshake must arrive within the dial budget; a
			// connected-but-mute peer must not wedge the mesh forever.
			conn.SetReadDeadline(time.Now().Add(timeout))
			var hello [helloLen]byte
			if _, err := io.ReadFull(conn, hello[:]); err != nil {
				conn.Close()
				c.event(TCPEvent{Kind: EvHandshakeErr, Peer: -1, Err: err})
				fail(fmt.Errorf("mp: rank %d handshake read: %w", rank, err))
				return
			}
			conn.SetReadDeadline(time.Time{})
			peer := int(int32(binary.BigEndian.Uint32(hello[0:4])))
			peerEpoch := binary.BigEndian.Uint32(hello[4:8])
			if err := checkRank(peer, size, "peer"); err != nil {
				conn.Close()
				c.event(TCPEvent{Kind: EvHandshakeErr, Peer: peer, Err: err})
				fail(err)
				return
			}
			// Answer with our own epoch before judging the peer's, so a
			// stale dialer learns why it was refused instead of seeing EOF.
			var ack [ackLen]byte
			binary.BigEndian.PutUint32(ack[:], c.epoch)
			conn.SetWriteDeadline(time.Now().Add(timeout))
			if _, err := conn.Write(ack[:]); err != nil {
				conn.Close()
				c.event(TCPEvent{Kind: EvHandshakeErr, Peer: peer, Err: err})
				fail(fmt.Errorf("mp: rank %d handshake ack write: %w", rank, err))
				return
			}
			conn.SetWriteDeadline(time.Time{})
			if peerEpoch != c.epoch {
				// A dialer from another world generation — typically a
				// process that outlived its crash and found our rebuilt
				// listener. Refuse it without failing the mesh-up: the
				// peer we are actually waiting for is still to come.
				conn.Close()
				c.event(TCPEvent{Kind: EvStaleEpoch, Peer: peer,
					Err: &EpochError{Local: c.epoch, Remote: peerEpoch}})
				continue
			}
			if err := c.setConn(peer, conn); err != nil {
				fail(err)
				return
			}
			c.event(TCPEvent{Kind: EvAcceptOK, Peer: peer})
			accepted++
		}
	}()
	for i := 0; i < rank; i++ {
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			deadline := time.Now().Add(timeout)
			backoff := backoff0
			jitter := rand.New(rand.NewPCG(uint64(rank), uint64(peer)))
			var conn net.Conn
			var err error
			for attempt := int64(0); ; attempt++ {
				select {
				case <-abort:
					return
				default:
				}
				conn, err = net.DialTimeout("tcp", addrs[peer], time.Second)
				if err == nil {
					c.event(TCPEvent{Kind: EvDialOK, Peer: peer, Attempt: int(attempt)})
					break
				}
				if time.Now().After(deadline) {
					fail(fmt.Errorf("mp: rank %d dial rank %d (%s): %w", rank, peer, addrs[peer], err))
					return
				}
				c.event(TCPEvent{Kind: EvDialRetry, Peer: peer, Attempt: int(attempt), Err: err})
				// Capped exponential backoff with deterministic ±25% jitter
				// keyed on (rank, peer, attempt).
				sleep := time.Duration(float64(backoff) * (0.75 + 0.5*jitter.Float64()))
				select {
				case <-abort:
					return
				case <-time.After(sleep):
				}
				if backoff *= 2; backoff > maxDialBackoff {
					backoff = maxDialBackoff
				}
			}
			tuneConn(conn)
			conn.SetWriteDeadline(time.Now().Add(timeout))
			var hello [helloLen]byte
			binary.BigEndian.PutUint32(hello[0:4], uint32(int32(rank)))
			binary.BigEndian.PutUint32(hello[4:8], c.epoch)
			if _, err := conn.Write(hello[:]); err != nil {
				conn.Close()
				c.event(TCPEvent{Kind: EvHandshakeErr, Peer: peer, Err: err})
				fail(fmt.Errorf("mp: rank %d handshake write: %w", rank, err))
				return
			}
			conn.SetWriteDeadline(time.Time{})
			conn.SetReadDeadline(time.Now().Add(timeout))
			var ack [ackLen]byte
			if _, err := io.ReadFull(conn, ack[:]); err != nil {
				conn.Close()
				c.event(TCPEvent{Kind: EvHandshakeErr, Peer: peer, Err: err})
				fail(fmt.Errorf("mp: rank %d handshake ack read: %w", rank, err))
				return
			}
			conn.SetReadDeadline(time.Time{})
			if remote := binary.BigEndian.Uint32(ack[:]); remote != c.epoch {
				err := &EpochError{Local: c.epoch, Remote: remote}
				conn.Close()
				c.event(TCPEvent{Kind: EvStaleEpoch, Peer: peer, Err: err})
				fail(fmt.Errorf("mp: rank %d dial rank %d: %w", rank, peer, err))
				return
			}
			if err := c.setConn(peer, conn); err != nil {
				fail(err)
				return
			}
		}(i)
	}
	wg.Wait()
	close(meshDone)
	select {
	case err := <-errCh:
		c.Close()
		return nil, err
	default:
	}
	// Everyone is provably alive right now; liveness tracking starts here.
	now := time.Now().UnixNano()
	for i := range c.lastSeen {
		c.lastSeen[i].Store(now)
	}
	// Start one reader per peer, plus the optional liveness prober.
	for i, pc := range c.conns {
		if pc == nil {
			continue
		}
		c.readers.Add(1)
		go c.readLoop(i, pc)
	}
	if c.hbInterval > 0 && size > 1 {
		c.readers.Add(1)
		go c.heartbeatLoop()
	}
	return c, nil
}

// peerConn is one mesh connection and its send queue. Senders append whole
// frames to pend under mu and return; the writer goroutine swaps pend out
// and issues one Write for everything queued since its last one, so a burst
// of small frames costs one syscall and the computing goroutine none.
type peerConn struct {
	conn net.Conn
	peer int

	mu      sync.Mutex
	pend    []byte        // frames queued for the writer, at most sendBufSize (+ctlHeadroom)
	writing bool          // a socket write is in flight: the writer's, or a write-through sender's
	closing bool          // Close has queued the goodbye: no more frames, the writer exits once drained
	changed chan struct{} // non-nil while a sender waits for room; closed on the next state change
	frames  int64         // frames accepted
	writes  int64         // socket writes issued
	wake    chan struct{} // capacity 1: tells the writer pend filled, the socket freed, or to stop
	done    chan struct{} // closed when the writer has exited

	// err is the latched write failure: set once, under mu, after which
	// pend is dropped and every send fails with it. Read without the lock
	// by Wait on a send request, once per tile in the overlapped schedule.
	err       atomic.Pointer[error]
	blockedNs atomic.Int64
}

// PeerWriteStats is the send-side tally of one mesh connection:
// Frames/Writes is how many frames the writer coalesced per socket write,
// Blocked how long senders waited for room in a full queue.
type PeerWriteStats struct {
	Peer    int
	Frames  int64
	Writes  int64
	Blocked time.Duration
}

type tcpComm struct {
	rank, size int
	epoch      uint32
	listener   net.Listener
	conns      []*peerConn // immutable once ConnectTCP returns
	box        *mailbox
	readers    sync.WaitGroup
	ioTimeout  time.Duration
	onEvent    func(TCPEvent)

	// Failure handling.
	ab                *aborter
	deadline          time.Duration
	hbInterval        time.Duration
	hbMiss            int
	hbStop            chan struct{}
	hbStopOnce        sync.Once
	abortOnDisconnect bool
	departed          []atomic.Bool  // peer sent ctlGoodbye
	lastSeen          []atomic.Int64 // UnixNano of last frame per peer (heartbeats on only)

	mu        sync.Mutex // guards conns during mesh-up
	closed    atomic.Bool
	closeOnce sync.Once

	// Barrier state: rank 0 coordinates.
	barMu      sync.Mutex
	barCond    *sync.Cond
	barArrived int
	barGen     int
}

// setConn registers a completed handshake and starts the connection's
// writer. A duplicate claim for the same rank or a comm already torn down
// closes the connection instead of leaking it.
func (c *tcpComm) setConn(peer int, conn net.Conn) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		conn.Close()
		return ErrClosed
	}
	if c.conns[peer] != nil {
		conn.Close()
		return fmt.Errorf("mp: rank %d: duplicate connection claiming rank %d", c.rank, peer)
	}
	pc := &peerConn{conn: conn, peer: peer, wake: make(chan struct{}, 1), done: make(chan struct{})}
	c.conns[peer] = pc
	go pc.writeLoop(c) // Close stops it and waits on pc.done
	return nil
}

func (c *tcpComm) Rank() int { return c.rank }
func (c *tcpComm) Size() int { return c.size }

// WriteStats reports the send-side counters of every mesh connection, in
// peer order; obs.InstrumentComm picks it up for the metrics snapshot.
func (c *tcpComm) WriteStats() []PeerWriteStats {
	var out []PeerWriteStats
	for _, pc := range c.conns {
		if pc != nil {
			pc.mu.Lock()
			out = append(out, PeerWriteStats{Peer: pc.peer, Frames: pc.frames,
				Writes: pc.writes, Blocked: time.Duration(pc.blockedNs.Load())})
			pc.mu.Unlock()
		}
	}
	return out
}

// appendHeader appends the header of a frame carrying n payload bytes.
// Reserved-tag (control) frames carry a 4-byte epoch prefix in front of
// their payload so a peer from another world generation can reject them:
// the handshake already fences whole connections, the prefix fences any
// frame that was in flight when the worlds changed over.
func appendHeader(buf []byte, src, tag int, epoch uint32, n int) []byte {
	if tag < 0 {
		n += 4
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(src)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(tag)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(n)))
	if tag < 0 {
		buf = binary.BigEndian.AppendUint32(buf, epoch)
	}
	return buf
}

// send hands one frame to dst's writer and returns once it is queued (the
// payload is copied), blocking while the queue is full — bounded by
// Deadline, abort and, through the writer, IOTimeout. A write failure is
// latched per peer, so it surfaces on the next send after the writer hit
// it, not on the send whose bytes were lost. urgent marks the control
// frames that must never block (abort, heartbeat, goodbye): they may
// overrun the bound by ctlHeadroom and are dropped beyond it. A payload over
// maxFrameLen fails here, before anything is queued: the peer's reader
// would reject the frame and stop reading the connection.
func (c *tcpComm) send(dst, tag int, data []byte, urgent bool) error {
	if c.closed.Load() {
		return ErrClosed
	}
	pc := c.conns[dst]
	if pc == nil {
		return fmt.Errorf("mp: no connection to rank %d", dst)
	}
	n := len(data)
	if tag < 0 {
		n += 4 // the epoch prefix
	}
	if n > maxFrameLen {
		return fmt.Errorf("mp: %d-byte message to rank %d exceeds the TCP frame limit of %d bytes (maxFrameLen)", len(data), dst, maxFrameLen)
	}
	need := n + frameHdrLen
	pc.mu.Lock()
	if !urgent && !pc.room(need) {
		if err := pc.awaitRoom(c, need); err != nil {
			return err
		}
	}
	var err error
	switch {
	case pc.err.Load() != nil:
		err = pc.failure()
	case pc.closing:
		err = ErrClosed
	case urgent && len(pc.pend)+need > sendBufSize+ctlHeadroom:
		err = errBackedUp
	case !urgent && need > sendBufSize:
		// The bufio.Writer rule: nothing is queued or in flight ahead of a
		// frame larger than the whole buffer, so it goes out from the
		// caller's slice, and the writer gets the socket back afterwards.
		pc.writing = true
		pc.frames++
		pc.mu.Unlock()
		err = pc.write(c, appendHeader(nil, c.rank, tag, c.epoch, len(data)), data)
		pc.signal()
		return err
	default:
		idle := len(pc.pend) == 0
		pc.pend = append(appendHeader(pc.pend, c.rank, tag, c.epoch, len(data)), data...)
		pc.frames++
		pc.mu.Unlock()
		if idle {
			pc.signal()
		}
		return nil
	}
	pc.mu.Unlock()
	return err
}

// room reports whether a frame of need bytes may go now: into pend, or past
// it when it is larger than the whole buffer. A failed or closing
// connection has "room" so the sender gets to its error. Called with mu
// held.
func (pc *peerConn) room(need int) bool {
	switch {
	case pc.err.Load() != nil || pc.closing:
		return true
	case need > sendBufSize:
		return len(pc.pend) == 0 && !pc.writing
	}
	return len(pc.pend)+need <= sendBufSize
}

// awaitRoom blocks until room(need). Called with mu held; returns with it
// held on success and released on error.
func (pc *peerConn) awaitRoom(c *tcpComm, need int) error {
	start := time.Now()
	defer func() { pc.blockedNs.Add(int64(time.Since(start))) }()
	var expire <-chan time.Time
	if c.deadline > 0 {
		timer := time.NewTimer(c.deadline)
		defer timer.Stop()
		expire = timer.C
	}
	for !pc.room(need) {
		if pc.changed == nil {
			pc.changed = make(chan struct{})
		}
		changed := pc.changed
		pc.mu.Unlock()
		select {
		case <-changed:
		case <-c.ab.done():
			return c.ab.cause()
		case <-expire:
			return ErrDeadline
		}
		pc.mu.Lock()
	}
	return nil
}

// notify wakes the senders waiting in awaitRoom. Called with mu held.
func (pc *peerConn) notify() {
	if pc.changed != nil {
		close(pc.changed)
		pc.changed = nil
	}
}

// signal wakes the writer.
func (pc *peerConn) signal() {
	select {
	case pc.wake <- struct{}{}:
	default:
	}
}

// failure returns the latched write error, if any.
func (pc *peerConn) failure() error {
	if err := pc.err.Load(); err != nil {
		return *err
	}
	return nil
}

// write puts bufs on the socket, each write bounded by IOTimeout, and
// settles the outcome; the caller has set pc.writing. Writes on a
// connection never overlap and the first failure is the last write, so it
// is reported exactly once — before it is latched, so no send can return
// the error ahead of the event. Latching drops what is queued.
func (pc *peerConn) write(c *tcpComm, bufs ...[]byte) error {
	var err error
	var writes int64
	for _, b := range bufs {
		if c.ioTimeout > 0 {
			pc.conn.SetWriteDeadline(time.Now().Add(c.ioTimeout))
		}
		writes++
		if _, err = pc.conn.Write(b); err != nil {
			break
		}
	}
	if err != nil && !c.closed.Load() { // Close pulling the socket from under a stuck write is not news
		c.event(TCPEvent{Kind: EvWriteErr, Peer: pc.peer, Err: err})
	}
	pc.mu.Lock()
	pc.writing = false
	pc.writes += writes
	if err != nil {
		latched := err // a copy, so that err itself need not live on the heap
		pc.pend = nil
		pc.err.Store(&latched)
	}
	pc.notify()
	pc.mu.Unlock()
	return err
}

// writeLoop is the connection's writer: it sleeps until frames are queued,
// takes all of them and writes them with one call. It exits on the first
// write failure, or when Close has marked the connection closing and
// everything queued has left.
func (pc *peerConn) writeLoop(c *tcpComm) {
	defer close(pc.done)
	var buf []byte
	for {
		pc.mu.Lock()
		for pc.err.Load() == nil && (pc.writing || len(pc.pend) == 0 && !pc.closing) {
			pc.mu.Unlock()
			<-pc.wake
			pc.mu.Lock()
		}
		if pc.err.Load() != nil || len(pc.pend) == 0 {
			pc.mu.Unlock()
			return
		}
		buf, pc.pend = pc.pend, buf[:0]
		pc.writing = true
		pc.notify()
		pc.mu.Unlock()
		pc.write(c, buf)
	}
}

// event delivers ev to the registered observer, if any.
func (c *tcpComm) event(ev TCPEvent) {
	if c.onEvent != nil {
		c.onEvent(ev)
	}
}

// frameReader decodes one connection's frames through a recvBufSize
// buffer. The payload next returns aliases that buffer — or, for a frame
// larger than it, a slab reused from frame to frame — and is valid until
// the following call.
type frameReader struct {
	br   *bufio.Reader
	size int // world size, to validate the source rank
	held int // bytes of br the previous payload still occupies
	slab []byte
}

func newFrameReader(r io.Reader, size int) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, recvBufSize), size: size}
}

// next reads and validates one frame. A corrupt header (source out of
// range, negative or oversized length) fails with an error rather than
// panicking.
func (fr *frameReader) next() (src, tag int, payload []byte, err error) {
	fr.br.Discard(fr.held) // cannot fail: those bytes are buffered
	fr.held = 0
	hdr, err := fr.br.Peek(frameHdrLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, 0, nil, err
	}
	src = int(int32(binary.BigEndian.Uint32(hdr[0:4])))
	tag = int(int32(binary.BigEndian.Uint32(hdr[4:8])))
	n := int(int32(binary.BigEndian.Uint32(hdr[8:12])))
	if src < 0 || src >= fr.size {
		return 0, 0, nil, fmt.Errorf("mp: frame source %d out of range [0,%d)", src, fr.size)
	}
	if n < 0 || n > maxFrameLen {
		return 0, 0, nil, fmt.Errorf("mp: frame length %d out of range [0,%d]", n, maxFrameLen)
	}
	fr.br.Discard(frameHdrLen)
	if n <= recvBufSize {
		if payload, err = fr.br.Peek(n); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, 0, nil, err
		}
		fr.held = n
		return src, tag, payload, nil
	}
	// A large frame goes to the slab, which grows only as bytes actually
	// arrive (eightfold, at most to n): a hostile length on a truncated
	// stream cannot force an allocation of more than 8× what was really
	// sent, a 32 MiB Gather block gets there in four steps, and a run of
	// equally large frames allocates once.
	for off := 0; off < n; {
		if off == cap(fr.slab) {
			grown := make([]byte, min(n, max(8*cap(fr.slab), 2*recvBufSize)))
			copy(grown, fr.slab[:off])
			fr.slab = grown
		}
		end := min(n, cap(fr.slab))
		if _, err := io.ReadFull(fr.br, fr.slab[off:end]); err != nil {
			return 0, 0, nil, err
		}
		off = end
	}
	return src, tag, fr.slab[:n], nil
}

func (c *tcpComm) readLoop(peer int, pc *peerConn) {
	defer c.readers.Done()
	fr := newFrameReader(pc.conn, c.size)
	for {
		src, tag, data, err := fr.next()
		if err != nil {
			c.peerGone(peer, err)
			return
		}
		if c.hbInterval > 0 {
			c.lastSeen[peer].Store(time.Now().UnixNano())
		}
		if tag < 0 {
			// Control frames carry an epoch prefix (see appendHeader). A
			// mismatch means the frame was written by an endpoint of a
			// different world generation: drop it rather than letting a
			// pre-crash abort or goodbye poison the rebuilt world.
			if len(data) < 4 {
				c.event(TCPEvent{Kind: EvStaleEpoch, Peer: peer,
					Err: fmt.Errorf("mp: control frame tag %d missing epoch prefix", tag)})
				continue
			}
			if got := binary.BigEndian.Uint32(data[0:4]); got != c.epoch {
				c.event(TCPEvent{Kind: EvStaleEpoch, Peer: peer,
					Err: &EpochError{Local: c.epoch, Remote: got}})
				continue
			}
			c.handleControl(src, tag, data[4:])
			continue
		}
		// A posted receive gets the payload copied straight out of the
		// reader's buffer; only an unexpected message allocates.
		_ = c.box.deliver(src, tag, data, nil)
	}
}

// peerGone handles a dead connection: silently during teardown or after a
// clean goodbye, otherwise it is a crash signal — reported, and (when the
// failure-detection options ask for it) escalated to a world abort.
func (c *tcpComm) peerGone(peer int, err error) {
	if c.closed.Load() || c.ab.cause() != nil || c.departed[peer].Load() {
		return
	}
	c.event(TCPEvent{Kind: EvPeerLost, Peer: peer, Err: err})
	if c.abortOnDisconnect {
		c.doAbort(&AbortError{
			Rank:  peer,
			Cause: fmt.Errorf("mp: connection to rank %d lost: %w", peer, err),
		}, true)
	}
}

func (c *tcpComm) handleControl(src, tag int, payload []byte) {
	switch tag {
	case ctlBarrierArrive: // only rank 0 receives these
		c.barMu.Lock()
		c.barArrived++
		c.barCond.Broadcast()
		c.barMu.Unlock()
	case ctlBarrierRelease: // non-zero ranks
		c.barMu.Lock()
		c.barGen++
		c.barCond.Broadcast()
		c.barMu.Unlock()
	case ctlAbort:
		origin, cause := decodeAbort(payload)
		c.doAbort(&AbortError{Rank: origin, Cause: errors.New(cause)}, true)
	case ctlHeartbeat:
		c.event(TCPEvent{Kind: EvHeartbeat, Peer: src})
	case ctlGoodbye:
		c.departed[src].Store(true)
	}
}

func encodeAbort(e *AbortError) []byte {
	cause := "unknown"
	if e.Cause != nil {
		cause = e.Cause.Error()
	}
	buf := make([]byte, 4+len(cause))
	binary.BigEndian.PutUint32(buf[0:4], uint32(int32(e.Rank)))
	copy(buf[4:], cause)
	return buf
}

func decodeAbort(payload []byte) (origin int, cause string) {
	if len(payload) < 4 {
		return -1, "malformed abort"
	}
	return int(int32(binary.BigEndian.Uint32(payload[0:4]))), string(payload[4:])
}

// doAbort latches the abort, unblocks every local waiter (mailbox and
// barrier), and — when forwarding — passes the poison to this rank's
// children on the binomial tree rooted at the origin, reaching all ranks
// in ⌈log2 size⌉ hops.
func (c *tcpComm) doAbort(e *AbortError, forward bool) {
	if !c.ab.abort(e) {
		return
	}
	c.event(TCPEvent{Kind: EvAbort, Peer: e.Rank, Err: e.Cause})
	c.box.poison(e)
	c.barMu.Lock()
	c.barCond.Broadcast()
	c.barMu.Unlock()
	if !forward {
		return
	}
	payload := encodeAbort(e)
	for _, child := range abortChildren(c.rank, e.Rank, c.size) {
		// Best effort: a child whose connection is already dead or backed up
		// will learn of the abort from its own disconnect signal or deadline.
		_ = c.send(child, ctlAbort, payload, true)
	}
}

func (c *tcpComm) Abort(cause error) error {
	if c.closed.Load() {
		return ErrClosed
	}
	c.doAbort(&AbortError{Rank: c.rank, Cause: cause}, true)
	return nil
}

// heartbeatLoop probes every live peer each interval and declares the
// world aborted when one has been silent too long. Any received frame
// counts as liveness; the probe only bounds the silence.
func (c *tcpComm) heartbeatLoop() {
	defer c.readers.Done()
	ticker := time.NewTicker(c.hbInterval)
	defer ticker.Stop()
	limit := time.Duration(c.hbMiss) * c.hbInterval
	for {
		select {
		case <-c.hbStop:
			return
		case <-c.ab.done():
			return
		case now := <-ticker.C:
			for p := range c.conns {
				if p == c.rank || c.conns[p] == nil || c.departed[p].Load() {
					continue
				}
				_ = c.send(p, ctlHeartbeat, nil, true)
				silent := now.Sub(time.Unix(0, c.lastSeen[p].Load()))
				if silent > limit {
					err := fmt.Errorf("mp: rank %d heartbeat timeout (silent %v > %v)", p, silent.Round(time.Millisecond), limit)
					c.event(TCPEvent{Kind: EvPeerLost, Peer: p, Err: err})
					c.doAbort(&AbortError{Rank: p, Cause: err}, true)
					return
				}
			}
		}
	}
}

func (c *tcpComm) Send(dst, tag int, data []byte) error {
	req, err := c.Isend(dst, tag, data)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

func (c *tcpComm) Isend(dst, tag int, data []byte) (Request, error) {
	if e := c.ab.cause(); e != nil {
		return nil, e
	}
	if err := checkRank(dst, c.size, "destination"); err != nil {
		return nil, err
	}
	if err := checkTag(tag, false); err != nil {
		return nil, err
	}
	if dst == c.rank {
		return eagerSend(c.box.deliver(c.rank, tag, data, nil))
	}
	if err := c.send(dst, tag, data, false); err != nil {
		return eagerSend(err)
	}
	return queuedSend{c.conns[dst]}, nil
}

// queuedSend is the Request of a frame handed to a peer's writer. The frame
// was copied (or, too large for the queue, written out), so the request is
// complete at once; what Wait and Test still report is that peer's latched
// write failure, if there is one by then.
type queuedSend struct{ pc *peerConn }

func (s queuedSend) Wait() (Status, error)       { return Status{}, s.pc.failure() }
func (s queuedSend) Test() (bool, Status, error) { return true, Status{}, s.pc.failure() }

func (c *tcpComm) Recv(src, tag int, buf []byte) (Status, error) {
	if err := c.checkRecv(src, tag); err != nil {
		return Status{}, err
	}
	return c.box.recv(src, tag, buf, c.deadline)
}

func (c *tcpComm) checkRecv(src, tag int) error {
	if err := checkSource(src, c.size); err != nil {
		return err
	}
	return checkTag(tag, true)
}

func (c *tcpComm) Irecv(src, tag int, buf []byte) (Request, error) {
	if err := c.checkRecv(src, tag); err != nil {
		return nil, err
	}
	return c.box.irecv(src, tag, buf, c.deadline)
}

func (c *tcpComm) RecvInit(src int, buf []byte) (Persistent, error) {
	if err := checkSource(src, c.size); err != nil {
		return nil, err
	}
	return c.box.recvInit(src, buf, c.deadline, nil), nil
}

// Barrier: ranks send an arrive frame to rank 0; rank 0 waits for size−1
// arrivals plus itself, then broadcasts release frames. The wait observes
// both the communicator deadline and aborts.
func (c *tcpComm) Barrier() error {
	if e := c.ab.cause(); e != nil {
		return e
	}
	if c.size == 1 {
		return nil
	}
	var expired bool
	if c.deadline > 0 {
		timer := time.AfterFunc(c.deadline, func() {
			c.barMu.Lock()
			expired = true
			c.barCond.Broadcast()
			c.barMu.Unlock()
		})
		defer timer.Stop()
	}
	if c.rank == 0 {
		c.barMu.Lock()
		for c.barArrived < c.size-1 {
			if e := c.ab.cause(); e != nil {
				c.barMu.Unlock()
				return e
			}
			if expired {
				c.barMu.Unlock()
				return ErrDeadline
			}
			c.barCond.Wait()
		}
		c.barArrived -= c.size - 1
		c.barMu.Unlock()
		for i := 1; i < c.size; i++ {
			if err := c.send(i, ctlBarrierRelease, nil, false); err != nil {
				return err
			}
		}
		return nil
	}
	c.barMu.Lock()
	gen := c.barGen
	c.barMu.Unlock()
	if err := c.send(0, ctlBarrierArrive, nil, false); err != nil {
		return err
	}
	c.barMu.Lock()
	defer c.barMu.Unlock()
	for c.barGen == gen {
		if e := c.ab.cause(); e != nil {
			return e
		}
		if expired {
			return ErrDeadline
		}
		c.barCond.Wait()
	}
	return nil
}

// Close says goodbye to every peer, lets the writers drain what is queued
// (bounded by IOTimeout, or closeDrain without one), then tears the
// endpoint down. It returns the write failure latched on a peer that has
// not itself departed, if any: the last chance to learn that queued frames
// never left.
func (c *tcpComm) Close() error {
	var failed error
	c.closeOnce.Do(func() {
		// Stop probing before the connections go away.
		c.hbStopOnce.Do(func() { close(c.hbStop) })
		c.mu.Lock()
		conns := make([]*peerConn, 0, len(c.conns))
		for _, pc := range c.conns {
			if pc != nil {
				conns = append(conns, pc)
			}
		}
		c.mu.Unlock()
		// Polite departure: tell live peers this endpoint is leaving so
		// the connection teardown below is not mistaken for a crash.
		// Sent even when the world is aborted: abort propagation may
		// still be in flight, and a peer that has not latched it yet
		// would otherwise see a bare EOF and misreport this clean close
		// as a peer-lost crash.
		for _, pc := range conns {
			_ = c.send(pc.peer, ctlGoodbye, nil, true)
			pc.mu.Lock()
			pc.closing = true
			pc.notify()
			pc.mu.Unlock()
			pc.signal()
		}
		limit := c.ioTimeout
		if limit <= 0 {
			limit = closeDrain
		}
		timer := time.NewTimer(limit)
		defer timer.Stop()
	drain:
		for _, pc := range conns {
			select {
			case <-pc.done:
			case <-timer.C: // a peer stopped reading; closing the socket frees its writer
				break drain
			}
		}
		for _, pc := range conns {
			if err := pc.failure(); err != nil && failed == nil && !c.departed[pc.peer].Load() {
				failed = err
			}
		}
		c.closed.Store(true)
		if c.listener != nil {
			c.listener.Close()
		}
		for _, pc := range conns {
			pc.conn.Close()
		}
		for _, pc := range conns {
			<-pc.done
		}
		c.box.close()
		c.readers.Wait()
	})
	return failed
}
