package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/stencil"
)

func testConfig() runner.Config {
	return runner.Config{
		Grid:   model.Grid3D{I: 4, J: 4, K: 32, PI: 2, PJ: 2},
		V:      8,
		Kernel: stencil.Sqrt3D{},
		Mode:   runner.Overlapped,
	}
}

// TestSpawnRunReportsFirstFailure: when one rank cannot connect, the
// launcher must tear the others down and report the failing rank as a
// diagnostic within the teardown budget — not hang while the survivors
// wait out their full dial timeout on the missing rank.
func TestSpawnRunReportsFirstFailure(t *testing.T) {
	cfg := testConfig()
	n := int(cfg.Grid.PI * cfg.Grid.PJ)
	addrs, err := loopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	connect := func(rank int, cancel <-chan struct{}) (mp.Comm, error) {
		if rank == 1 {
			return nil, fmt.Errorf("injected connect failure")
		}
		return mp.ConnectTCP(rank, n, addrs,
			&mp.TCPOptions{DialTimeout: 30 * time.Second, Cancel: cancel})
	}
	done := make(chan error, 1)
	go func() { done <- spawnRun(n, connect, func(c mp.Comm) error { return rankMain(c, job3D(cfg), nil) }) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("spawnRun succeeded with a rank that cannot connect")
		}
		if !strings.Contains(err.Error(), "rank 1") {
			t.Errorf("diagnostic does not name the failed rank: %v", err)
		}
		if !strings.Contains(err.Error(), "injected connect failure") {
			t.Errorf("diagnostic dropped the underlying cause: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("spawnRun hung instead of tearing down after a rank failure")
	}
}

// TestSpawnRunDelayedRankSucceeds: a rank that comes up late must be
// absorbed by the dial retry/backoff, and the whole spawn still succeeds
// and verifies.
func TestSpawnRunDelayedRankSucceeds(t *testing.T) {
	cfg := testConfig()
	n := int(cfg.Grid.PI * cfg.Grid.PJ)
	addrs, err := loopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	connect := func(rank int, cancel <-chan struct{}) (mp.Comm, error) {
		if rank == 0 {
			time.Sleep(200 * time.Millisecond)
		}
		return mp.ConnectTCP(rank, n, addrs,
			&mp.TCPOptions{DialTimeout: 30 * time.Second, Cancel: cancel})
	}
	done := make(chan error, 1)
	go func() { done <- spawnRun(n, connect, func(c mp.Comm) error { return rankMain(c, job3D(cfg), nil) }) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("spawnRun with a late rank: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("spawnRun hung with a late-starting rank")
	}
}

// TestSpawnRunInstrumentedSnapshot is the acceptance check for the live
// instrumentation: a loopback TCP cluster runs with each rank wrapped in
// obs.InstrumentComm, and the teardown snapshot must conserve traffic —
// what rank a counts as sent to b, in messages and bytes, is exactly what
// rank b counts as received from a, and every rank counts the same
// barriers — with per-peer TCP frames and writes consistent with the
// messages sent. The snapshot is read back over the live HTTP endpoint
// (/metrics.json) and from the -metrics-snapshot teardown file, so the
// whole observer path — registry, server, JSON dump — is covered.
func TestSpawnRunInstrumentedSnapshot(t *testing.T) {
	cfg := testConfig()
	n := int(cfg.Grid.PI * cfg.Grid.PJ)
	addrs, err := loopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "metrics.json")
	obsv, err := newObserver("127.0.0.1:0", snapPath)
	if err != nil {
		t.Fatal(err)
	}
	connect := func(rank int, cancel <-chan struct{}) (mp.Comm, error) {
		opts, wrap := obsv.instrument(rank, n, mp.TCPOptions{
			DialTimeout: 30 * time.Second, Cancel: cancel,
		})
		c, err := mp.ConnectTCP(rank, n, addrs, opts)
		if err != nil {
			return nil, err
		}
		// The observer wraps the transport itself, as tilenode's does, so
		// the snapshot carries the TCP writer's per-peer frames and writes.
		return wrap(c), nil
	}
	if err := spawnRun(n, connect, func(c mp.Comm) error { return rankMain(c, job3D(cfg), nil) }); err != nil {
		t.Fatal(err)
	}

	// Live endpoint, after the ranks quiesced but before teardown.
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics.json", obsv.srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	live, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics.json: status %d, err %v", resp.StatusCode, err)
	}
	if err := obsv.finish(); err != nil {
		t.Fatal(err)
	}
	fromFile, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(live) != string(fromFile) {
		t.Error("teardown snapshot differs from the live /metrics.json body")
	}

	var dump struct {
		Ranks []obs.CommSnapshot `json:"ranks"`
	}
	if err := json.Unmarshal(fromFile, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Ranks) != n {
		t.Fatalf("snapshot has %d ranks, want %d", len(dump.Ranks), n)
	}
	peers := make([]map[int]obs.PeerTraffic, n)
	for _, s := range dump.Ranks {
		peers[s.Rank] = map[int]obs.PeerTraffic{}
		for _, p := range s.Peers {
			peers[s.Rank][p.Peer] = p
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			sent, got := peers[a][b], peers[b][a]
			if sent.SendMsgs != got.RecvMsgs || sent.SendBytes != got.RecvBytes {
				t.Errorf("rank %d -> %d: %d msgs / %d bytes sent, %d / %d received",
					a, b, sent.SendMsgs, sent.SendBytes, got.RecvMsgs, got.RecvBytes)
			}
		}
	}
	for _, s := range dump.Ranks {
		if s.Barriers != dump.Ranks[0].Barriers {
			t.Errorf("rank %d: %d barriers, rank %d counted %d",
				s.Rank, s.Barriers, dump.Ranks[0].Rank, dump.Ranks[0].Barriers)
		}
		if s.SendBytes == 0 || s.RecvBytes == 0 {
			t.Errorf("rank %d: no traffic recorded (%+v) — instrumentation not wired", s.Rank, s)
		}
		if s.TCP.DialOKs+s.TCP.AcceptOKs != int64(n-1) {
			t.Errorf("rank %d: %d dials + %d accepts, want %d connections",
				s.Rank, s.TCP.DialOKs, s.TCP.AcceptOKs, n-1)
		}
		// Every data message is one frame (control frames add more), and
		// the writer puts one or more frames on the socket per write.
		for _, p := range s.Peers {
			if p.Frames < p.SendMsgs || p.Writes < 1 || p.Writes > p.Frames {
				t.Errorf("rank %d peer %d: frames %d, writes %d for %d messages sent",
					s.Rank, p.Peer, p.Frames, p.Writes, p.SendMsgs)
			}
		}
	}
}
