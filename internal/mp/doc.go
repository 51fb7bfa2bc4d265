// Package mp is a from-scratch message-passing layer standing in for MPI
// (the paper's substrate; no mature MPI binding exists for Go, so the
// reproduction builds its own).
//
// It provides the primitives the paper's pseudocode uses — blocking
// Send/Recv (ProcB) and non-blocking Isend/Irecv + Wait (ProcNB), whose
// receives also come persistent (RecvInit + Start) — with
// MPI-style matching on (source, tag) including wildcards, FIFO
// non-overtaking order per (source, tag), and a Barrier.
//
// Two transports implement Comm:
//
//   - the in-process transport (NewWorld/Launch): ranks are goroutines
//     sharing a matching fabric; this is the default substrate for the
//     tests, `tilebench verify` and the wall-clock comparison of the two
//     schedules;
//   - the TCP transport (ConnectTCP): ranks are separate processes meshed
//     over TCP sockets via the net package, for multi-process runs.
//
// # Buffer ownership
//
// A slice handed to Send or Isend belongs to the transport only until the
// operation completes — Send returning, or Wait on the Isend's request
// returning. Both transports are done with it by then, and every Comm
// wrapper in this repository passes the slice straight through, so a caller
// may send every message of a run from one buffer. In process the payload
// has been copied, into the posted receive's buffer or the mailbox's own.
// On TCP it has been copied into the destination's bounded pending buffer,
// from which that peer's writer goroutine puts everything queued on the
// socket with one write — or, for a frame larger than the whole buffer,
// written out from the caller's slice before Isend returns. Either way
// Isend returning already means "copied or written", Wait returns at once,
// and a full pending buffer blocks the sender (bounded by Deadline, abort
// and IOTimeout): that is the transport's flow control. Receive buffers
// likewise: the transport fills buf before the receive's Wait returns and
// not after. runner's tile loop relies on both halves to run without
// allocating (ownership_test.go holds the transports to it).
//
// Because a TCP send returns before its bytes reach the socket, a write
// failure cannot be reported by the send that lost them. It is latched per
// peer: TCPOptions.OnEvent sees EvWriteErr once, and the next Send or Isend
// to that peer, Wait on any request to it, Barrier, and Close all return
// that error.
//
// # Persistent receives
//
// RecvInit makes a Persistent receive (MPI_Recv_init) bound to one source
// and one buffer, and posts nothing: it is idle, and Wait on it returns a
// zero Status at once. Each Start(tag) (MPI_Start) begins a round: it posts
// the receive for one message with that tag, and the round is pending
// until a message matches it or a deadline, abort or close ends it. Wait
// and Test then report that round — as often as asked, like an Irecv's
// request — until the next Start clears it; Start on a pending round
// fails with ErrActive, and a refused Start (a bad tag, a closed or
// aborted communicator) fails the round too. Irecv's buffer rule holds per
// round. The transport reuses the one op from round to round, with its
// completion channel and its deadline timer, which is what an Irecv per
// message allocates anew; in exchange Start and Wait on one Persistent
// belong to one goroutine. runner's overlapped tile loop makes one per
// receive buffer and starts it with each tile's tag. Wrappers that embed
// a Comm pass RecvInit through untouched unless they wrap it, as
// obs.InstrumentComm does.
//
// # Message size
//
// A TCP message carries at most 64 MiB (maxFrameLen): a longer Send or
// Isend fails at once with an error naming the limit, nothing of it is
// queued, and the connection goes on carrying later messages. The bound is
// what lets a reader refuse a corrupt length header instead of allocating
// it. The in-process transport has no limit. Code that ships data of any
// size cuts it into bounded chunks, as runner's gather does.
//
// # Collectives
//
// Bcast, Reduce and AllReduce run over log-depth binomial trees built from
// Send and Recv on reserved tags (from UserTagLimit up), so they inherit the
// Comm contract below: non-overtaking matching, deadlines and abort. The
// paper's programs are point-to-point only; the one collective a run uses
// is runner's AllReduce(OpMin), with which the ranks agree on the newest
// checkpoint they all hold before a restore.
//
// # Failure handling
//
// Like MPI, the collective operations and Barrier require every rank to
// participate, but unlike classical MPI a stuck or dead peer does not wedge
// the world forever. Three mechanisms bound every blocking operation:
//
//   - Deadlines: a per-communicator default deadline (WorldOptions.Deadline,
//     TCPOptions.Deadline) bounds each blocking wait — Recv, Request.Wait,
//     Barrier — which then fails with ErrDeadline instead of blocking
//     forever. A deadline-expired receive is withdrawn from the matching
//     queue; the message it would have matched stays deliverable to a later
//     receive.
//
//   - Cooperative abort: any rank may call Comm.Abort(cause). The abort is
//     disseminated over a log-depth binomial tree (on the TCP transport;
//     in-process it is a shared-memory poison), and every rank's pending and
//     future operations — point-to-point, collectives, and Barrier — fail
//     with an *AbortError carrying the origin rank and cause
//     (errors.Is(err, ErrAborted) reports true). Runner code calls Abort on
//     any mid-run error so peers unblock promptly instead of deadlocking.
//
//   - Failure detection (TCP): TCPOptions.Heartbeat starts a liveness probe
//     on a reserved control tag; a peer silent for HeartbeatMiss intervals
//     triggers an abort naming it. Connection loss is an even faster signal:
//     with AbortOnDisconnect (implied by heartbeats), a peer that vanishes
//     without the shutdown handshake aborts the world immediately.
//
// Deterministic configuration validation should still happen on every rank
// before the first collective (as runner does): a validation failure is then
// reported identically everywhere without any abort traffic.
package mp
