package mp

import (
	"errors"
	"fmt"
)

// Wildcards for Recv/Irecv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// ErrClosed is returned by operations on a closed communicator.
var ErrClosed = errors.New("mp: communicator closed")

// ErrTruncated is returned when an incoming message is larger than the
// receive buffer (like MPI_ERR_TRUNCATE).
var ErrTruncated = errors.New("mp: message truncated (receive buffer too small)")

// ErrDeadline is returned by blocking operations that exceeded the
// communicator's configured deadline (WorldOptions.Deadline or
// TCPOptions.Deadline). The operation is withdrawn: a receive that timed
// out no longer matches incoming messages.
var ErrDeadline = errors.New("mp: deadline exceeded")

// ErrActive is returned by Persistent.Start while the receive's previous
// round is still pending (MPI forbids MPI_Start on an active request).
var ErrActive = errors.New("mp: persistent receive started while still pending")

// ErrAborted is the sentinel matched (via errors.Is) by the *AbortError
// returned from every operation after a communicator abort.
var ErrAborted = errors.New("mp: world aborted")

// ErrStaleEpoch is the sentinel matched (via errors.Is) by the *EpochError
// a connect handshake returns when the two endpoints belong to different
// world generations (TCPOptions.Epoch).
var ErrStaleEpoch = errors.New("mp: stale world epoch")

// AbortError reports that the world was aborted: Rank is the origin rank
// that called Abort (or that a failure detector declared dead), Cause the
// reason it gave. errors.Is(err, ErrAborted) reports true for it.
type AbortError struct {
	Rank  int
	Cause error
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("mp: world aborted by rank %d: %v", e.Rank, e.Cause)
}

func (e *AbortError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrAborted) match any AbortError.
func (e *AbortError) Is(target error) bool { return target == ErrAborted }

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Bytes  int
}

// Request is a handle on a non-blocking operation.
type Request interface {
	// Wait blocks until the operation completes and returns its status.
	// For sends the Status is zero-valued.
	Wait() (Status, error)
	// Test reports whether the operation has completed without blocking.
	Test() (bool, Status, error)
}

// Persistent is a receive made once by Comm.RecvInit and started again for
// every message it takes (MPI_Recv_init and MPI_Start): a loop that receives
// into the same buffer round after round re-arms one op instead of posting
// a new one each time. Wait and Test act on the round the last Start began,
// with Irecv's buffer rule and the communicator's deadline; before the
// first Start the receive is idle and Wait returns a zero Status at once.
// Start and Wait on one Persistent are called from one goroutine.
type Persistent interface {
	Request
	// Start posts the receive for the next message from its source with
	// the given tag (AnyTag allowed). The previous round must be complete:
	// Start on a receive still pending fails with ErrActive. A Start that
	// is refused (a bad tag, a closed or aborted communicator) fails, and
	// so does the round's Wait.
	Start(tag int) error
}

// Comm is one rank's endpoint of a communicator.
type Comm interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Send delivers data to dst with the given tag, blocking until the
	// message is buffered for delivery (eager/buffered semantics, like
	// MPI_Send on small messages). When Send returns the transport has
	// copied data or written it out and keeps no reference to it: the
	// caller may overwrite the slice at once. On TCP "buffered" is the
	// destination's bounded pending buffer, so Send blocks while that is
	// full, and an error writing the socket is reported by the next
	// operation toward that peer rather than by the Send whose bytes were
	// lost (see "Buffer ownership" in the package documentation).
	Send(dst, tag int, data []byte) error
	// Recv blocks until a matching message arrives and copies it into buf.
	// src may be AnySource, tag may be AnyTag.
	Recv(src, tag int, buf []byte) (Status, error)
	// Isend starts a non-blocking send. The caller must leave data alone
	// until Wait on the returned request has returned; from then on the
	// transport keeps no reference to it, exactly as after Send. On TCP
	// the frame is already queued (or written) when Isend returns, Wait
	// does not block, and what Wait reports is a write failure latched on
	// that peer by then, if any.
	Isend(dst, tag int, data []byte) (Request, error)
	// Irecv posts a non-blocking receive into buf. The transport writes buf
	// at some point before Wait returns and never after, so a caller may
	// cycle a fixed set of receive buffers, reusing one once its Wait has
	// returned.
	Irecv(src, tag int, buf []byte) (Request, error)
	// RecvInit makes an idle persistent receive from src (AnySource
	// allowed) into buf; each Start posts it for one message.
	RecvInit(src int, buf []byte) (Persistent, error)
	// Barrier blocks until every rank has entered the barrier.
	Barrier() error
	// Abort poisons the whole communicator: every rank's pending and
	// future blocking operations fail with an *AbortError carrying this
	// rank and the given cause. Only the first abort wins; later calls are
	// no-ops. Safe to call from any goroutine, including while other
	// operations on the same endpoint block.
	Abort(cause error) error
	// Close releases the endpoint. Further operations fail with ErrClosed.
	Close() error
}

// WaitAll waits on every request, returning the first error encountered
// (after waiting on all of them, like MPI_Waitall).
func WaitAll(reqs ...Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func checkRank(rank, size int, what string) error {
	if rank < 0 || rank >= size {
		return fmt.Errorf("mp: %s rank %d out of range [0,%d)", what, rank, size)
	}
	return nil
}

func checkSource(src, size int) error {
	if src == AnySource {
		return nil
	}
	return checkRank(src, size, "source")
}

func checkTag(tag int, allowAny bool) error {
	if tag >= 0 {
		return nil
	}
	if allowAny && tag == AnyTag {
		return nil
	}
	return fmt.Errorf("mp: invalid tag %d (tags must be >= 0)", tag)
}
