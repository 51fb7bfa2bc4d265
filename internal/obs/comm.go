package obs

import (
	"math/bits"
	"sync/atomic"
	"time"

	"repro/internal/mp"
)

// waitBuckets is the number of log2 histogram buckets for blocking-wait
// durations. Bucket i counts waits with duration in [2^i, 2^(i+1)) ns,
// bucket 0 additionally absorbs sub-nanosecond waits; the last bucket is
// open-ended. 40 buckets reach ~18 minutes, far beyond any sane wait.
const waitBuckets = 40

// waitBucket maps a wait duration to its histogram bucket.
func waitBucket(d time.Duration) int {
	ns := d.Nanoseconds()
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns)) - 1 // floor(log2 ns)
	if b >= waitBuckets {
		b = waitBuckets - 1
	}
	return b
}

// peerCounters is the per-peer traffic tally. All fields are atomics so the
// decorated Comm stays safe for the concurrent use mp.Comm permits.
type peerCounters struct {
	sendMsgs, sendBytes atomic.Int64
	recvMsgs, recvBytes atomic.Int64
}

// CommMetrics collects live counters for one rank's mp.Comm endpoint:
// per-peer send/recv traffic, a log2 histogram of blocking-wait times
// (Recv, Request.Wait, Barrier), and TCP transport lifecycle counters fed
// by mp.TCPOptions.OnEvent. Create one with NewCommMetrics, wrap the
// endpoint with InstrumentComm, and read it out with Snapshot; Registry
// aggregates several (one per in-process rank) behind one HTTP endpoint.
type CommMetrics struct {
	rank, size int
	peers      []peerCounters // indexed by peer rank
	barriers   atomic.Int64

	waitHist    [waitBuckets]atomic.Int64
	waitCount   atomic.Int64
	waitTotalNs atomic.Int64

	tcpDialRetries  atomic.Int64
	tcpDialOKs      atomic.Int64
	tcpAcceptOKs    atomic.Int64
	tcpHandshakeErr atomic.Int64
	tcpWriteErr     atomic.Int64
	tcpHeartbeats   atomic.Int64
	tcpPeersLost    atomic.Int64
	tcpAborts       atomic.Int64
	tcpStaleEpochs  atomic.Int64

	checkpoints     atomic.Int64
	checkpointBytes atomic.Int64

	wire atomic.Pointer[wireStats] // the wrapped endpoint's own send-side tally, if it keeps one
}

// wireStats is what the TCP transport counts per mesh connection beneath
// the Comm interface: frames queued, socket writes issued, time senders
// spent blocked on a full queue.
type wireStats interface{ WriteStats() []mp.PeerWriteStats }

// NewCommMetrics returns a metrics collector for the given rank in a world
// of the given size.
func NewCommMetrics(rank, size int) *CommMetrics {
	return &CommMetrics{rank: rank, size: size, peers: make([]peerCounters, size)}
}

// TCPEvent tallies a transport lifecycle event; pass it as
// mp.TCPOptions.OnEvent when dialing the mesh. Safe for concurrent use.
func (m *CommMetrics) TCPEvent(ev mp.TCPEvent) {
	switch ev.Kind {
	case mp.EvDialRetry:
		m.tcpDialRetries.Add(1)
	case mp.EvDialOK:
		m.tcpDialOKs.Add(1)
	case mp.EvAcceptOK:
		m.tcpAcceptOKs.Add(1)
	case mp.EvHandshakeErr:
		m.tcpHandshakeErr.Add(1)
	case mp.EvWriteErr:
		m.tcpWriteErr.Add(1)
	case mp.EvHeartbeat:
		m.tcpHeartbeats.Add(1)
	case mp.EvPeerLost:
		m.tcpPeersLost.Add(1)
	case mp.EvAbort:
		m.tcpAborts.Add(1)
	case mp.EvStaleEpoch:
		m.tcpStaleEpochs.Add(1)
	}
}

// RecordCheckpoints tallies snapshot activity reported by the runner (count
// of checkpoints written and their total on-disk bytes). Safe for
// concurrent use.
func (m *CommMetrics) RecordCheckpoints(count int, bytes int64) {
	m.checkpoints.Add(int64(count))
	m.checkpointBytes.Add(bytes)
}

// recordWait adds one blocking-wait observation to the histogram.
func (m *CommMetrics) recordWait(d time.Duration) {
	m.waitHist[waitBucket(d)].Add(1)
	m.waitCount.Add(1)
	m.waitTotalNs.Add(d.Nanoseconds())
}

// PeerTraffic is the snapshot of traffic exchanged with one peer.
type PeerTraffic struct {
	Peer      int   `json:"peer"`
	SendMsgs  int64 `json:"send_msgs"`
	SendBytes int64 `json:"send_bytes"`
	RecvMsgs  int64 `json:"recv_msgs"`
	RecvBytes int64 `json:"recv_bytes"`
	// TCP transport only: frames queued for the peer (data and control)
	// and the socket writes that carried them — frames/writes is the
	// coalescing ratio — and how long senders waited on a full queue.
	Frames        int64 `json:"frames,omitempty"`
	Writes        int64 `json:"writes,omitempty"`
	SendBlockedNs int64 `json:"send_blocked_ns,omitempty"`
}

// WaitBucket is one non-empty histogram bucket: Count waits with duration
// in [LoNs, 2*LoNs) nanoseconds.
type WaitBucket struct {
	LoNs  int64 `json:"lo_ns"`
	Count int64 `json:"count"`
}

// TCPCounts is the snapshot of transport lifecycle counters.
type TCPCounts struct {
	DialRetries   int64 `json:"dial_retries"`
	DialOKs       int64 `json:"dial_oks"`
	AcceptOKs     int64 `json:"accept_oks"`
	HandshakeErrs int64 `json:"handshake_errs"`
	WriteErrs     int64 `json:"write_errs"`
	Heartbeats    int64 `json:"heartbeats,omitempty"`
	PeersLost     int64 `json:"peers_lost,omitempty"`
	Aborts        int64 `json:"aborts,omitempty"`
	StaleEpochs   int64 `json:"stale_epochs,omitempty"`
}

// CommSnapshot is a plain-value copy of a CommMetrics, shaped for JSON.
type CommSnapshot struct {
	Rank      int           `json:"rank"`
	Size      int           `json:"size"`
	SendMsgs  int64         `json:"send_msgs"`
	SendBytes int64         `json:"send_bytes"`
	RecvMsgs  int64         `json:"recv_msgs"`
	RecvBytes int64         `json:"recv_bytes"`
	Barriers  int64         `json:"barriers"`
	Peers     []PeerTraffic `json:"peers,omitempty"` // peers with traffic only
	WaitCount int64         `json:"wait_count"`
	WaitNs    int64         `json:"wait_total_ns"`
	WaitHist  []WaitBucket  `json:"wait_hist,omitempty"`
	TCP       TCPCounts     `json:"tcp"`
	// Checkpoint activity reported via RecordCheckpoints.
	Checkpoints     int64 `json:"checkpoints,omitempty"`
	CheckpointBytes int64 `json:"checkpoint_bytes,omitempty"`
}

// Snapshot returns the current counter values. The per-counter loads are
// individually atomic but not mutually consistent — a snapshot taken while
// traffic is in flight may see a message's count before its bytes. Take
// teardown snapshots after the endpoint quiesces.
func (m *CommMetrics) Snapshot() CommSnapshot {
	s := CommSnapshot{Rank: m.rank, Size: m.size}
	wire := make([]mp.PeerWriteStats, len(m.peers))
	if w := m.wire.Load(); w != nil {
		for _, st := range (*w).WriteStats() {
			wire[st.Peer] = st
		}
	}
	for p := range m.peers {
		pc := &m.peers[p]
		t := PeerTraffic{
			Peer:          p,
			SendMsgs:      pc.sendMsgs.Load(),
			SendBytes:     pc.sendBytes.Load(),
			RecvMsgs:      pc.recvMsgs.Load(),
			RecvBytes:     pc.recvBytes.Load(),
			Frames:        wire[p].Frames,
			Writes:        wire[p].Writes,
			SendBlockedNs: int64(wire[p].Blocked),
		}
		s.SendMsgs += t.SendMsgs
		s.SendBytes += t.SendBytes
		s.RecvMsgs += t.RecvMsgs
		s.RecvBytes += t.RecvBytes
		if t.SendMsgs != 0 || t.RecvMsgs != 0 || t.Frames != 0 {
			s.Peers = append(s.Peers, t)
		}
	}
	s.Barriers = m.barriers.Load()
	s.WaitCount = m.waitCount.Load()
	s.WaitNs = m.waitTotalNs.Load()
	for b := range m.waitHist {
		if n := m.waitHist[b].Load(); n != 0 {
			s.WaitHist = append(s.WaitHist, WaitBucket{LoNs: int64(1) << b, Count: n})
		}
	}
	s.TCP = TCPCounts{
		DialRetries:   m.tcpDialRetries.Load(),
		DialOKs:       m.tcpDialOKs.Load(),
		AcceptOKs:     m.tcpAcceptOKs.Load(),
		HandshakeErrs: m.tcpHandshakeErr.Load(),
		WriteErrs:     m.tcpWriteErr.Load(),
		Heartbeats:    m.tcpHeartbeats.Load(),
		PeersLost:     m.tcpPeersLost.Load(),
		Aborts:        m.tcpAborts.Load(),
		StaleEpochs:   m.tcpStaleEpochs.Load(),
	}
	s.Checkpoints = m.checkpoints.Load()
	s.CheckpointBytes = m.checkpointBytes.Load()
	return s
}

// InstrumentComm wraps c so every operation updates m: per-peer traffic on
// Send/Isend/Recv/Irecv and on every round of a persistent receive, and the
// blocking-wait histogram on Recv, Wait (a request's or a persistent
// receive's) and Barrier. It is the one Comm decorator outside tests: a
// drop-in wrapper with the per-peer / latency / transport detail the live
// metrics endpoint serves. Counting happens only on success, matching the
// simulator's convention that failed transfers contribute retransmits, not
// traffic. An endpoint that keeps its own per-peer send-side tally (the TCP
// transport's WriteStats) has it folded into the snapshot.
func InstrumentComm(c mp.Comm, m *CommMetrics) mp.Comm {
	if w, ok := c.(wireStats); ok {
		m.wire.Store(&w)
	}
	return &instrumentedComm{Comm: c, m: m}
}

type instrumentedComm struct {
	mp.Comm
	m *CommMetrics
}

func (c *instrumentedComm) Send(dst, tag int, data []byte) error {
	err := c.Comm.Send(dst, tag, data)
	if err == nil && dst >= 0 && dst < len(c.m.peers) {
		c.m.peers[dst].sendMsgs.Add(1)
		c.m.peers[dst].sendBytes.Add(int64(len(data)))
	}
	return err
}

func (c *instrumentedComm) Isend(dst, tag int, data []byte) (mp.Request, error) {
	req, err := c.Comm.Isend(dst, tag, data)
	if err == nil && dst >= 0 && dst < len(c.m.peers) {
		c.m.peers[dst].sendMsgs.Add(1)
		c.m.peers[dst].sendBytes.Add(int64(len(data)))
	}
	if err != nil {
		return nil, err
	}
	// Send-side waits still go in the histogram; bytes were counted above.
	return &instrumentedReq{Request: req, m: c.m}, nil
}

func (c *instrumentedComm) Recv(src, tag int, buf []byte) (mp.Status, error) {
	start := time.Now()
	st, err := c.Comm.Recv(src, tag, buf)
	c.m.recordWait(time.Since(start))
	if err == nil {
		c.countRecv(st)
	}
	return st, err
}

func (c *instrumentedComm) Irecv(src, tag int, buf []byte) (mp.Request, error) {
	req, err := c.Comm.Irecv(src, tag, buf)
	if err != nil {
		return nil, err
	}
	return &instrumentedReq{Request: req, m: c.m, recv: true, comm: c}, nil
}

func (c *instrumentedComm) RecvInit(src int, buf []byte) (mp.Persistent, error) {
	p, err := c.Comm.RecvInit(src, buf)
	if err != nil {
		return nil, err
	}
	r := &instrumentedRecv{Persistent: p, comm: c}
	r.counted.Store(true) // idle: no round to count before the first Start
	return r, nil
}

func (c *instrumentedComm) Barrier() error {
	start := time.Now()
	err := c.Comm.Barrier()
	c.m.recordWait(time.Since(start))
	if err == nil {
		c.m.barriers.Add(1)
	}
	return err
}

func (c *instrumentedComm) countRecv(st mp.Status) {
	if st.Source >= 0 && st.Source < len(c.m.peers) {
		c.m.peers[st.Source].recvMsgs.Add(1)
		c.m.peers[st.Source].recvBytes.Add(int64(st.Bytes))
	}
}

// instrumentedReq wraps a Request: Wait durations feed the blocking-wait
// histogram; completed receives are counted once, whether the completion is
// observed via Wait or Test.
type instrumentedReq struct {
	mp.Request
	m       *CommMetrics
	recv    bool
	comm    *instrumentedComm
	counted atomic.Bool
}

func (r *instrumentedReq) Wait() (mp.Status, error) {
	start := time.Now()
	st, err := r.Request.Wait()
	r.m.recordWait(time.Since(start))
	if err == nil && r.recv && r.counted.CompareAndSwap(false, true) {
		r.comm.countRecv(st)
	}
	return st, err
}

func (r *instrumentedReq) Test() (bool, mp.Status, error) {
	done, st, err := r.Request.Test()
	if done && err == nil && r.recv && r.counted.CompareAndSwap(false, true) {
		r.comm.countRecv(st)
	}
	return done, st, err
}

// instrumentedRecv wraps a persistent receive as instrumentedReq wraps an
// Irecv's request, round by round: each Start begins a round whose
// completed receive is counted once.
type instrumentedRecv struct {
	mp.Persistent
	comm    *instrumentedComm
	counted atomic.Bool // the current round is counted, or there is none
}

func (r *instrumentedRecv) Start(tag int) error {
	r.counted.Store(false)
	return r.Persistent.Start(tag)
}

func (r *instrumentedRecv) Wait() (mp.Status, error) {
	start := time.Now()
	st, err := r.Persistent.Wait()
	r.comm.m.recordWait(time.Since(start))
	r.count(st, err)
	return st, err
}

func (r *instrumentedRecv) Test() (bool, mp.Status, error) {
	done, st, err := r.Persistent.Test()
	if done {
		r.count(st, err)
	}
	return done, st, err
}

// count tallies the round's receive once.
func (r *instrumentedRecv) count(st mp.Status, err error) {
	if err == nil && r.counted.CompareAndSwap(false, true) {
		r.comm.countRecv(st)
	}
}
