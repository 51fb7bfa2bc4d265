package mp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Failure-handling tests: deadlines, cooperative abort, heartbeat/liveness
// detection, and the mp-level chaos scenario. All deadlines are short (the
// slowest bound asserted is 2s of wall clock, reached only on failure).

const testDeadline = 100 * time.Millisecond

// wantWithin fails unless err matches target and the elapsed time stayed
// within the (generous, CI-safe) bound.
func wantWithin(t *testing.T, what string, start time.Time, err, target error, bound time.Duration) {
	t.Helper()
	if !errors.Is(err, target) {
		t.Fatalf("%s: got error %v, want %v", what, err, target)
	}
	if el := time.Since(start); el > bound {
		t.Fatalf("%s: took %v, want < %v", what, el, bound)
	}
}

func TestInprocRecvDeadline(t *testing.T) {
	w, comms, err := NewWorldOpts(2, WorldOptions{RendezvousThreshold: -1, Deadline: testDeadline})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	start := time.Now()
	_, err = comms[0].Recv(1, 0, make([]byte, 8))
	wantWithin(t, "Recv with silent peer", start, err, ErrDeadline, 2*time.Second)
}

// TestInprocLateMessageAfterDeadline: a deadline-expired receive is
// withdrawn from the matching queue, so a message arriving later is not
// swallowed by the dead operation — a fresh receive still gets it.
func TestInprocLateMessageAfterDeadline(t *testing.T) {
	w, comms, err := NewWorldOpts(2, WorldOptions{RendezvousThreshold: -1, Deadline: testDeadline})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := comms[0].Recv(1, 7, make([]byte, 8)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("first Recv: got %v, want ErrDeadline", err)
	}
	if err := comms[1].Send(0, 7, []byte("late")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	st, err := comms[0].Recv(1, 7, buf)
	if err != nil {
		t.Fatalf("second Recv: %v", err)
	}
	if string(buf[:st.Bytes]) != "late" {
		t.Fatalf("second Recv got %q", buf[:st.Bytes])
	}
}

// TestInprocWaitDeadlineSticky: once a Wait fails with ErrDeadline the
// request stays failed — repeated Waits report the same outcome (Wait
// idempotency, which the overlapped runner relies on).
func TestInprocWaitDeadlineSticky(t *testing.T) {
	w, comms, err := NewWorldOpts(2, WorldOptions{RendezvousThreshold: -1, Deadline: testDeadline})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	req, err := comms[0].Irecv(1, 0, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := req.Wait(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("first Wait: %v", err)
	}
	if _, err := req.Wait(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("second Wait: %v", err)
	}
	if done, _, err := req.Test(); !done || !errors.Is(err, ErrDeadline) {
		t.Fatalf("Test after deadline: done=%v err=%v", done, err)
	}
}

func TestInprocBarrierDeadline(t *testing.T) {
	w, comms, err := NewWorldOpts(2, WorldOptions{RendezvousThreshold: -1, Deadline: testDeadline})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	start := time.Now()
	err = comms[0].Barrier()
	wantWithin(t, "Barrier with absent peer", start, err, ErrDeadline, 2*time.Second)
}

// TestInprocRendezvousSendDeadline: a rendezvous send whose receiver never
// shows up times out at Wait instead of blocking forever.
func TestInprocRendezvousSendDeadline(t *testing.T) {
	w, comms, err := NewWorldOpts(2, WorldOptions{RendezvousThreshold: 0, Deadline: testDeadline})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	req, err := comms[0].Isend(1, 3, []byte("unwanted"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = req.Wait()
	wantWithin(t, "rendezvous Wait with absent receiver", start, err, ErrDeadline, 2*time.Second)
}

// TestInprocAbortUnblocksAll: one rank aborts while its peers block in
// Recv, Barrier, and a collective; every peer fails promptly with an
// *AbortError naming the origin rank — no deadlock.
func TestInprocAbortUnblocksAll(t *testing.T) {
	const n = 4
	w, comms, err := NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cause := errors.New("tile 7 exploded")
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := comms[rank]
			switch rank {
			case 0:
				_, errs[rank] = c.Recv(2, 0, make([]byte, 8))
			case 1:
				errs[rank] = c.Barrier()
			case 3:
				_, errs[rank] = AllReduce(c, []float64{1}, opSum)
			case 2:
				time.Sleep(20 * time.Millisecond) // let the others block
				errs[rank] = c.Abort(cause)
			}
		}(i)
	}
	wg.Wait()
	if time.Since(start) > 2*time.Second {
		t.Fatalf("abort took %v to unblock the world", time.Since(start))
	}
	if errs[2] != nil {
		t.Fatalf("Abort returned %v", errs[2])
	}
	for _, rank := range []int{0, 1, 3} {
		var ae *AbortError
		if !errors.As(errs[rank], &ae) {
			t.Fatalf("rank %d: got %v, want *AbortError", rank, errs[rank])
		}
		if ae.Rank != 2 || !errors.Is(ae, ErrAborted) || !errors.Is(errs[rank], cause) {
			t.Errorf("rank %d: AbortError = %+v, want origin 2 wrapping %v", rank, ae, cause)
		}
	}
	// The world stays poisoned: future operations fail the same way.
	if err := comms[0].Send(1, 0, []byte("x")); !errors.Is(err, ErrAborted) {
		t.Errorf("Send after abort: %v, want ErrAborted", err)
	}
}

// TestInprocChaos is the mp-level chaos scenario: eight ranks ping-pong
// continuously, one aborts partway through, and every rank must unwind
// with ErrAborted — deterministically, with no timing dependence: nobody
// stops before the abort reaches them, however the scheduler orders the
// pairs.
func TestInprocChaos(t *testing.T) {
	const n, abortAt = 8, 1000
	errs := make([]error, n)
	w, comms, err := NewWorld(n)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := comms[rank]
			peer := rank ^ 1 // pairs (0,1), (2,3), ...
			buf := make([]byte, 8)
			for r := 0; ; r++ {
				if rank == 3 && r == abortAt {
					errs[rank] = c.Abort(fmt.Errorf("chaos at round %d", r))
					return
				}
				if rank < peer {
					if errs[rank] = c.Send(peer, r, buf); errs[rank] != nil {
						return
					}
					if _, errs[rank] = c.Recv(peer, r, buf); errs[rank] != nil {
						return
					}
				} else {
					if _, errs[rank] = c.Recv(peer, r, buf); errs[rank] != nil {
						return
					}
					if errs[rank] = c.Send(peer, r, buf); errs[rank] != nil {
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if errs[3] != nil {
		t.Fatalf("aborting rank: %v", errs[3])
	}
	for rank, err := range errs {
		if rank == 3 {
			continue
		}
		if !errors.Is(err, ErrAborted) {
			t.Errorf("rank %d: got %v, want ErrAborted", rank, err)
		}
	}
}

func TestTCPRecvDeadline(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			defer wg.Done()
			c, err := ConnectTCP(rank, 2, addrs, &TCPOptions{Deadline: testDeadline})
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close()
			if rank == 0 {
				start := time.Now()
				_, err := c.Recv(1, 0, make([]byte, 8))
				if !errors.Is(err, ErrDeadline) {
					errs[rank] = fmt.Errorf("Recv: got %v, want ErrDeadline", err)
				} else if el := time.Since(start); el > 2*time.Second {
					errs[rank] = fmt.Errorf("Recv deadline took %v", el)
				}
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestTCPBarrierDeadline(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			defer wg.Done()
			c, err := ConnectTCP(rank, 2, addrs, &TCPOptions{Deadline: testDeadline})
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close()
			if rank == 0 {
				start := time.Now()
				err := c.Barrier() // rank 1 never enters
				if !errors.Is(err, ErrDeadline) {
					errs[rank] = fmt.Errorf("Barrier: got %v, want ErrDeadline", err)
				} else if el := time.Since(start); el > 2*time.Second {
					errs[rank] = fmt.Errorf("Barrier deadline took %v", el)
				}
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

// TestTCPAbortPropagates: on a 4-rank mesh the abort poison must travel the
// dissemination tree and unblock every rank's pending Recv and Barrier with
// the origin's identity, then goroutines must drain on Close.
func TestTCPAbortPropagates(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 4
	cause := errors.New("deliberate failure")
	err := launchTCP(t, n, func(c Comm) error {
		if c.Rank() == 3 {
			time.Sleep(50 * time.Millisecond) // let peers block first
			return c.Abort(cause)
		}
		_, err := c.Recv(3, 0, make([]byte, 8))
		var ae *AbortError
		if !errors.As(err, &ae) {
			return fmt.Errorf("Recv: got %v, want *AbortError", err)
		}
		if ae.Rank != 3 {
			return fmt.Errorf("abort origin = %d, want 3", ae.Rank)
		}
		// Collectives and Barrier must observe the abort too.
		if err := c.Barrier(); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("Barrier after abort: %v, want ErrAborted", err)
		}
		if err := Bcast(c, 0, make([]byte, 4)); !errors.Is(err, ErrAborted) {
			return fmt.Errorf("Bcast after abort: %v, want ErrAborted", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// No goroutine leak: readers, heartbeats and waiters all drained.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestTCPAbortOnDisconnect: with AbortOnDisconnect, a peer vanishing
// without the goodbye handshake (a crash, not a Close) aborts the world
// naming that peer.
func TestTCPAbortOnDisconnect(t *testing.T) {
	addrs := freeAddrs(t, 2)
	comms := make([]Comm, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			defer wg.Done()
			comms[rank], errs[rank] = ConnectTCP(rank, 2, addrs, &TCPOptions{AbortOnDisconnect: true})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	defer comms[0].Close()
	// Simulate rank 1 dying: its socket closes with no goodbye frame.
	c1 := comms[1].(*tcpComm)
	c1.conns[0].conn.Close()
	start := time.Now()
	_, err := comms[0].Recv(1, 0, make([]byte, 8))
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("Recv after peer crash: got %v, want *AbortError", err)
	}
	if ae.Rank != 1 {
		t.Errorf("abort origin = %d, want 1 (the vanished peer)", ae.Rank)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("disconnect abort took %v", el)
	}
	comms[1].Close()
}

// TestTCPCleanCloseIsNotACrash: the goodbye handshake must keep a normal
// staggered shutdown abort-free even with AbortOnDisconnect set.
func TestTCPCleanCloseIsNotACrash(t *testing.T) {
	addrs := freeAddrs(t, 2)
	comms := make([]Comm, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			defer wg.Done()
			comms[rank], errs[rank] = ConnectTCP(rank, 2, addrs, &TCPOptions{AbortOnDisconnect: true})
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	// Rank 1 leaves politely; rank 0 must still be able to talk to itself
	// and observe no abort.
	if err := comms[1].Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let rank 0's reader see the EOF
	c0 := comms[0].(*tcpComm)
	if e := c0.ab.cause(); e != nil {
		t.Fatalf("clean Close aborted the peer: %v", e)
	}
	comms[0].Close()
}

// TestTCPHeartbeatDetectsMutePeer: a peer that is connected but totally
// silent (hung, not crashed — the socket stays open) must be declared dead
// by the heartbeat prober within miss×interval, aborting the world.
func TestTCPHeartbeatDetectsMutePeer(t *testing.T) {
	addrs := freeAddrs(t, 2)
	// The mute peer: completes the rank-1 handshake by hand, then never
	// writes another byte and never reads. (ConnectTCP rank 0 accepts from
	// rank 1; the real transport would heartbeat.)
	dialErr := make(chan error, 1)
	var muteConn net.Conn
	var muteMu sync.Mutex
	go func() {
		var conn net.Conn
		var err error
		deadline := time.Now().Add(5 * time.Second)
		for {
			conn, err = net.DialTimeout("tcp", addrs[0], time.Second)
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err != nil {
			dialErr <- err
			return
		}
		var hello [helloLen]byte
		binary.BigEndian.PutUint32(hello[0:4], uint32(int32(1)))
		binary.BigEndian.PutUint32(hello[4:8], 0) // epoch 0 matches the default
		if _, err := conn.Write(hello[:]); err != nil {
			dialErr <- err
			return
		}
		muteMu.Lock()
		muteConn = conn
		muteMu.Unlock()
		dialErr <- nil
	}()

	c, err := ConnectTCP(0, 2, addrs, &TCPOptions{
		Heartbeat:     20 * time.Millisecond,
		HeartbeatMiss: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := <-dialErr; err != nil {
		t.Fatal(err)
	}
	defer func() {
		muteMu.Lock()
		if muteConn != nil {
			muteConn.Close()
		}
		muteMu.Unlock()
	}()

	start := time.Now()
	_, err = c.Recv(1, 0, make([]byte, 8))
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("Recv from mute peer: got %v, want *AbortError", err)
	}
	if ae.Rank != 1 {
		t.Errorf("abort origin = %d, want 1 (the mute peer)", ae.Rank)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("heartbeat detection took %v (limit 3×20ms)", el)
	}
}

// TestAbortChildrenCoversWorld: the dissemination tree must reach every
// rank from any origin in at most ⌈log2 size⌉ hops.
func TestAbortChildrenCoversWorld(t *testing.T) {
	for size := 1; size <= 33; size++ {
		for origin := 0; origin < size; origin += 1 + size/5 {
			seen := make([]bool, size)
			depth := 0
			frontier := []int{origin}
			seen[origin] = true
			for len(frontier) > 0 {
				var next []int
				for _, r := range frontier {
					for _, ch := range abortChildren(r, origin, size) {
						if seen[ch] {
							t.Fatalf("size %d origin %d: rank %d poisoned twice", size, origin, ch)
						}
						seen[ch] = true
						next = append(next, ch)
					}
				}
				frontier = next
				if len(next) > 0 {
					depth++
				}
			}
			for r, ok := range seen {
				if !ok {
					t.Fatalf("size %d origin %d: rank %d never reached", size, origin, r)
				}
			}
			maxDepth := 0
			for 1<<maxDepth < size {
				maxDepth++
			}
			if depth > maxDepth {
				t.Errorf("size %d origin %d: tree depth %d > ⌈log2⌉ = %d", size, origin, depth, maxDepth)
			}
		}
	}
}

// Zero-cost check: the deadline/abort machinery must not slow the hot
// path when disabled. Compare with BenchmarkInprocPingPongDeadline.
func benchPingPong(b *testing.B, opts WorldOptions) {
	w, comms, err := NewWorldOpts(2, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64)
		for i := 0; i < b.N; i++ {
			if _, err := comms[1].Recv(0, 0, buf); err != nil {
				b.Error(err)
				return
			}
			if err := comms[1].Send(0, 1, buf); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := comms[0].Send(1, 0, buf); err != nil {
			b.Fatal(err)
		}
		if _, err := comms[0].Recv(1, 1, buf); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
}

func BenchmarkInprocPingPong(b *testing.B) {
	benchPingPong(b, WorldOptions{RendezvousThreshold: -1})
}

func BenchmarkInprocPingPongDeadline(b *testing.B) {
	benchPingPong(b, WorldOptions{RendezvousThreshold: -1, Deadline: 10 * time.Second})
}
