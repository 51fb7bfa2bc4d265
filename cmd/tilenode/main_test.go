package main

import (
	"context"
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
	j := job3D(cfg)
	j.check = true
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
	go func() { done <- spawnRun(n, connect, func(c mp.Comm) error { return rankMain(c, j, nil) }) }()
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
//
// The same bytes pin the reader rule: without a reader on rank 0 a rank
// sends its faces (runner.Stats.BytesSent) and its share of the one-byte
// agreement on mp.Bcast's tree, nothing else; with one (-verify), every
// other rank also ships its whole box, 8 bytes a point, to rank 0.
func TestSpawnRunInstrumentedSnapshot(t *testing.T) {
	cfg := testConfig()
	g := cfg.Grid
	n := int(g.PI * g.PJ)
	box := 8 * g.TileI() * g.TileJ() * g.K
	for _, reader := range []bool{false, true} {
		t.Run(fmt.Sprintf("reader=%v", reader), func(t *testing.T) {
			j := job3D(cfg)
			j.check = reader
			ranks, stats := instrumentedSpawn(t, j)
			peers := make([]map[int]obs.PeerTraffic, n)
			for _, s := range ranks {
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
			for _, s := range ranks {
				if s.Barriers != ranks[0].Barriers {
					t.Errorf("rank %d: %d barriers, rank %d counted %d",
						s.Rank, s.Barriers, ranks[0].Rank, ranks[0].Barriers)
				}
				// The wavefront's first rank only sends and its last only
				// receives, unless a gather adds the opposite direction.
				if s.SendBytes+s.RecvBytes == 0 {
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
			for r, s := range ranks {
				want := stats[r].BytesSent + bcastSends(r, n)
				if reader && r != 0 {
					want += box
					if to0 := peers[r][0].SendBytes; to0 < box {
						t.Errorf("rank %d sent rank 0 %d bytes, fewer than its %d-byte box", r, to0, box)
					}
				}
				if s.SendBytes != want {
					t.Errorf("rank %d sent %d bytes, want %d (faces %d)",
						r, s.SendBytes, want, stats[r].BytesSent)
				}
			}
		})
	}
}

// bcastSends is the number of messages rank sends on mp.Bcast's binomial
// tree from root 0 over size ranks: one per round in which it already
// holds the value and rank+mask exists.
func bcastSends(rank, size int) int64 {
	var n int64
	for mask := 1; mask < size; mask <<= 1 {
		if rank < mask && rank+mask < size {
			n++
		}
	}
	return n
}

// instrumentedSpawn runs j on a loopback TCP cluster with every rank
// wrapped by an observer serving /metrics.json and writing a teardown
// snapshot. It checks that the live body and the snapshot file agree and
// returns the snapshot's ranks and each rank's runner.Stats, by rank.
func instrumentedSpawn(t *testing.T, j job) ([]obs.CommSnapshot, []runner.Stats) {
	t.Helper()
	n := j.ranks
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
	stats := make([]runner.Stats, n)
	run, time := j.run, j.time
	j.run = func(c mp.Comm) (*runner.Local, runner.Stats, error) {
		l, st, err := run(c)
		stats[c.Rank()] = st
		return l, st, err
	}
	j.time = func(c mp.Comm) (runner.Stats, error) {
		st, err := time(c)
		stats[c.Rank()] = st
		return st, err
	}
	if err := spawnRun(n, connect, func(c mp.Comm) error { return rankMain(c, j, obsv) }); err != nil {
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
	ranks := make([]obs.CommSnapshot, n)
	for _, s := range dump.Ranks {
		ranks[s.Rank] = s
	}
	return ranks, stats
}

// TestBadJobRejectedBeforeLaunch: a job the runner would reject — here one
// with no ranks, in either shape — fails in buildJob with the runner's own
// error, whichever way tilenode was asked to run it, before any socket is
// dialled or any rank process started. It used to exit 0 under -spawn and
// -rank, having run nothing.
func TestBadJobRejectedBeforeLaunch(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	shapes := []struct {
		name string
		args []string
		err  error
	}{
		{"3d", []string{"-shape", "3d", "-space", "8x8x64", "-procs", "0x1", "-v", "8"},
			runner.Config{Grid: model.Grid3D{I: 8, J: 8, K: 64, PJ: 1}, V: 8, Kernel: stencil.Sqrt3D{}}.Validate(0)},
		{"2d", []string{"-shape", "2d", "-space2d", "64x8", "-s1", "8", "-ranks", "0"},
			runner.Config2D{I1: 64, I2: 8, S1: 8, Kernel: stencil.Sum2D{}}.Validate(0)},
	}
	modes := []struct {
		name string
		args []string
	}{
		{"spawn", []string{"-spawn"}},
		{"rank", []string{"-rank", "0", "-addrs", "127.0.0.1:1"}},
		{"supervise", []string{"-supervise", "-checkpoint-dir", t.TempDir(), "-checkpoint-every", "2"}},
	}
	for _, sh := range shapes {
		if sh.err == nil {
			t.Fatalf("%s: the runner accepts the job the test means to be bad", sh.name)
		}
		for _, m := range modes {
			t.Run(sh.name+"/"+m.name, func(t *testing.T) {
				out, err := child(ctx, append(m.args, sh.args...)...).CombinedOutput()
				if err == nil {
					t.Fatalf("exit 0 on a job with no ranks:\n%s", out)
				}
				if want := "tilenode: " + sh.err.Error() + "\n"; string(out) != want {
					t.Errorf("output %q, want only the runner's error %q", out, want)
				}
			})
		}
	}
}
