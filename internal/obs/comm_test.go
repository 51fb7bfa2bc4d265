package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mp"
)

// ringTraffic runs a small all-pairs exchange on an in-process world with
// every rank wrapped by InstrumentComm. Rank r sends one message of 10+dst
// bytes to every other rank dst (blocking to lower ranks, Isend to higher
// ones), receives one from every other rank through Irecv, observes each
// completed receive three times (WaitAll, Wait, Test), and enters one
// barrier.
func ringTraffic(t *testing.T, size int) []*CommMetrics {
	t.Helper()
	world, comms, err := mp.NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	metrics := make([]*CommMetrics, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for rank := 0; rank < size; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			metrics[rank] = NewCommMetrics(rank, size)
			c := InstrumentComm(comms[rank], metrics[rank])
			defer c.Close()

			var sends []mp.Request
			for dst := 0; dst < size; dst++ {
				if dst == rank {
					continue
				}
				payload := bytes.Repeat([]byte{byte(rank)}, 10+dst)
				if dst < rank {
					errs[rank] = c.Send(dst, rank, payload)
				} else {
					var req mp.Request
					req, errs[rank] = c.Isend(dst, rank, payload)
					sends = append(sends, req)
				}
				if errs[rank] != nil {
					return
				}
			}
			reqs := make([]mp.Request, 0, size-1)
			for src := 0; src < size; src++ {
				if src == rank {
					continue
				}
				req, err := c.Irecv(src, src, make([]byte, 64))
				if err != nil {
					errs[rank] = err
					return
				}
				reqs = append(reqs, req)
			}
			if err := mp.WaitAll(append(reqs, sends...)...); err != nil {
				errs[rank] = err
				return
			}
			// Observing a completed receive again must not count it again.
			for _, req := range reqs {
				if _, err := req.Wait(); err != nil {
					errs[rank] = err
					return
				}
				if done, _, err := req.Test(); !done || err != nil {
					errs[rank] = fmt.Errorf("Test after Wait: done=%v err=%v", done, err)
					return
				}
			}
			errs[rank] = c.Barrier()
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return metrics
}

// TestInstrumentCommCountsPersistentRecv: a persistent receive is counted
// once per round however often the round is observed (Wait twice, Test),
// never while idle, and its Waits feed the histogram as Irecv's do.
func TestInstrumentCommCountsPersistentRecv(t *testing.T) {
	const rounds = 3
	world, comms, err := mp.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer world.Close()
	m := NewCommMetrics(1, 2)
	c := InstrumentComm(comms[1], m)
	p, err := c.RecvInit(0, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); err != nil { // idle: nothing to count
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if err := comms[0].Send(1, r, make([]byte, 10+r)); err != nil {
			t.Fatal(err)
		}
		if err := p.Start(r); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := p.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if done, _, err := p.Test(); !done || err != nil {
			t.Fatalf("round %d: Test after Wait: done=%v err=%v", r, done, err)
		}
	}
	snap := m.Snapshot()
	if snap.RecvMsgs != rounds || snap.RecvBytes != 10+11+12 {
		t.Errorf("received %d msgs / %d bytes, want %d / %d", snap.RecvMsgs, snap.RecvBytes, rounds, 10+11+12)
	}
	if len(snap.Peers) != 1 || snap.Peers[0].Peer != 0 || snap.Peers[0].RecvMsgs != rounds {
		t.Errorf("per-peer traffic %+v, want %d messages from rank 0", snap.Peers, rounds)
	}
	if want := int64(1 + 2*rounds); snap.WaitCount != want {
		t.Errorf("%d waits recorded, want %d", snap.WaitCount, want)
	}
}

// TestInstrumentCommCountsRingTraffic checks every counter against the
// traffic ringTraffic is known to generate.
func TestInstrumentCommCountsRingTraffic(t *testing.T) {
	const size = 4
	metrics := ringTraffic(t, size)
	for rank := 0; rank < size; rank++ {
		snap := metrics[rank].Snapshot()
		var wantSendBytes int64
		for dst := 0; dst < size; dst++ {
			if dst != rank {
				wantSendBytes += int64(10 + dst)
			}
		}
		if snap.SendMsgs != size-1 || snap.SendBytes != wantSendBytes ||
			snap.RecvMsgs != size-1 || snap.RecvBytes != (size-1)*int64(10+rank) ||
			snap.Barriers != 1 {
			t.Errorf("rank %d: sent %d msgs / %d bytes, received %d / %d, %d barriers; want %d / %d, %d / %d, 1",
				rank, snap.SendMsgs, snap.SendBytes, snap.RecvMsgs, snap.RecvBytes, snap.Barriers,
				size-1, wantSendBytes, size-1, (size-1)*(10+rank))
		}
		if len(snap.Peers) != size-1 {
			t.Fatalf("rank %d: %d peers with traffic, want %d", rank, len(snap.Peers), size-1)
		}
		for _, p := range snap.Peers {
			if p.SendMsgs != 1 || p.SendBytes != int64(10+p.Peer) {
				t.Errorf("rank %d -> %d: send %d msgs / %d bytes, want 1 / %d",
					rank, p.Peer, p.SendMsgs, p.SendBytes, 10+p.Peer)
			}
			if p.RecvMsgs != 1 || p.RecvBytes != int64(10+rank) {
				t.Errorf("rank %d <- %d: recv %d msgs / %d bytes, want 1 / %d",
					rank, p.Peer, p.RecvMsgs, p.RecvBytes, 10+rank)
			}
		}
		// Every Wait and the Barrier passed through the histogram: two
		// Waits per receive, one per Isend (to the size-1-rank higher
		// ranks), and the barrier. Test records none.
		wantWaits := int64(2*(size-1) + (size - 1 - rank) + 1)
		if snap.WaitCount != wantWaits {
			t.Errorf("rank %d: %d waits recorded, want %d", rank, snap.WaitCount, wantWaits)
		}
		var histTotal int64
		for _, b := range snap.WaitHist {
			histTotal += b.Count
		}
		if histTotal != snap.WaitCount {
			t.Errorf("rank %d: histogram holds %d waits, count says %d", rank, histTotal, snap.WaitCount)
		}
	}
}

func TestWaitBucketBounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0}, {-time.Second, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2},
		{1024, 10}, {time.Duration(1) << 50, waitBuckets - 1},
	}
	for _, tc := range cases {
		if got := waitBucket(tc.d); got != tc.want {
			t.Errorf("waitBucket(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

func TestCommMetricsTCPEvents(t *testing.T) {
	m := NewCommMetrics(0, 2)
	for i := 0; i < 3; i++ {
		m.TCPEvent(mp.TCPEvent{Kind: mp.EvDialRetry, Peer: 1, Attempt: i, Err: io.EOF})
	}
	m.TCPEvent(mp.TCPEvent{Kind: mp.EvDialOK, Peer: 1, Attempt: 3})
	m.TCPEvent(mp.TCPEvent{Kind: mp.EvAcceptOK, Peer: 1})
	m.TCPEvent(mp.TCPEvent{Kind: mp.EvHandshakeErr, Peer: -1, Err: io.EOF})
	m.TCPEvent(mp.TCPEvent{Kind: mp.EvWriteErr, Peer: 1, Err: io.EOF})
	m.TCPEvent(mp.TCPEvent{Kind: mp.EvHeartbeat, Peer: 1})
	m.TCPEvent(mp.TCPEvent{Kind: mp.EvHeartbeat, Peer: 1})
	m.TCPEvent(mp.TCPEvent{Kind: mp.EvPeerLost, Peer: 1, Err: io.EOF})
	m.TCPEvent(mp.TCPEvent{Kind: mp.EvAbort, Peer: 1, Err: io.EOF})
	got := m.Snapshot().TCP
	want := TCPCounts{DialRetries: 3, DialOKs: 1, AcceptOKs: 1, HandshakeErrs: 1, WriteErrs: 1,
		Heartbeats: 2, PeersLost: 1, Aborts: 1}
	if got != want {
		t.Errorf("TCP counts = %+v, want %+v", got, want)
	}
}

// TestCommMetricsWireStats: wrapping a TCP endpoint surfaces the
// transport's own per-peer frame/write tally in the snapshot — every
// message is a frame, a burst shares socket writes, and the barrier's and
// the goodbye's control frames count too. An in-process endpoint has none.
func TestCommMetricsWireStats(t *testing.T) {
	const msgs = 2000
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	ms := []*CommMetrics{NewCommMetrics(0, 2), NewCommMetrics(1, 2)}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := range ms {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			raw, err := mp.ConnectTCP(rank, 2, addrs, &mp.TCPOptions{OnEvent: ms[rank].TCPEvent})
			if err != nil {
				errs[rank] = err
				return
			}
			c := InstrumentComm(raw, ms[rank])
			defer c.Close()
			buf := make([]byte, 64)
			for m := 0; m < msgs && errs[rank] == nil; m++ {
				if rank == 0 {
					errs[rank] = c.Send(1, m, buf)
				} else {
					_, errs[rank] = c.Recv(0, m, buf)
				}
			}
			if errs[rank] == nil {
				errs[rank] = c.Barrier()
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	s := ms[0].Snapshot()
	if len(s.Peers) != 1 || s.Peers[0].Peer != 1 {
		t.Fatalf("rank 0 peers = %+v, want one entry for rank 1", s.Peers)
	}
	p := s.Peers[0]
	if p.SendMsgs != msgs || p.Frames != msgs+2 { // + barrier release + goodbye
		t.Errorf("rank 0 → 1: %d messages in %d frames, want %d in %d", p.SendMsgs, p.Frames, msgs, msgs+2)
	}
	if p.Writes < 1 || p.Writes >= p.Frames {
		t.Errorf("rank 0 → 1: %d frames in %d writes, want some coalescing", p.Frames, p.Writes)
	}
	if r := ms[1].Snapshot().Peers; len(r) != 1 || r[0].Frames != 2 || r[0].RecvMsgs != msgs {
		t.Errorf("rank 1 peers = %+v, want %d messages received and the barrier arrive + goodbye sent", r, msgs)
	}
	inproc := ringTraffic(t, 2)
	if p := inproc[0].Snapshot().Peers; len(p) == 0 || p[0].Frames != 0 || p[0].Writes != 0 {
		t.Errorf("in-process peers = %+v, want traffic and no wire tally", p)
	}
}

func TestCommMetricsCheckpoints(t *testing.T) {
	m := NewCommMetrics(0, 2)
	m.RecordCheckpoints(2, 4096)
	m.RecordCheckpoints(1, 2048)
	s := m.Snapshot()
	if s.Checkpoints != 3 || s.CheckpointBytes != 6144 {
		t.Errorf("checkpoints = %d/%d bytes, want 3/6144", s.Checkpoints, s.CheckpointBytes)
	}
}

// TestRegistryStart spins up the metrics endpoint on a loopback port and
// checks all three surfaces: /metrics.json round-trips the snapshot,
// /debug/vars carries the published "tilecomm" variable, and
// /debug/pprof/ answers.
func TestRegistryStart(t *testing.T) {
	metrics := ringTraffic(t, 2)
	reg := NewRegistry()
	for _, m := range metrics {
		reg.Register(m)
	}
	srv, err := reg.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return body
	}

	var dump struct {
		Ranks []CommSnapshot `json:"ranks"`
	}
	if err := json.Unmarshal(get("/metrics.json"), &dump); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	if len(dump.Ranks) != 2 || dump.Ranks[0].Rank != 0 || dump.Ranks[1].Rank != 1 {
		t.Fatalf("metrics.json ranks = %+v", dump.Ranks)
	}
	for _, s := range dump.Ranks {
		if s.SendMsgs != 1 || s.RecvMsgs != 1 {
			t.Errorf("rank %d: %d sends / %d recvs over HTTP, want 1 / 1", s.Rank, s.SendMsgs, s.RecvMsgs)
		}
	}
	if vars := string(get("/debug/vars")); !strings.Contains(vars, `"tilecomm"`) {
		t.Error("/debug/vars does not carry the tilecomm variable")
	}
	if prof := string(get("/debug/pprof/")); !strings.Contains(prof, "goroutine") {
		t.Error("/debug/pprof/ index looks wrong")
	}

	// WriteJSON (the teardown dump) must match what the endpoint served.
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump2 struct {
		Ranks []CommSnapshot `json:"ranks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump2); err != nil {
		t.Fatal(err)
	}
	if len(dump2.Ranks) != len(dump.Ranks) {
		t.Errorf("teardown dump has %d ranks, endpoint served %d", len(dump2.Ranks), len(dump.Ranks))
	}
}

// TestRegistryPublishTwice: Publish from two registries must not panic
// (expvar forbids duplicate names); the latest registry wins.
func TestRegistryPublishTwice(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Publish()
	b.Publish()
	m := NewCommMetrics(7, 8)
	b.Register(m)
	snaps := b.Snapshot()
	if len(snaps) != 1 || snaps[0].Rank != 7 {
		t.Errorf("snapshot = %+v", snaps)
	}
}
