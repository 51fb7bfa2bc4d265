package mp

import (
	"sync"
	"testing"
	"time"
)

// eventLog collects TCPEvents concurrently; OnEvent is called from dial,
// accept, and send goroutines simultaneously.
type eventLog struct {
	mu     sync.Mutex
	events []TCPEvent
}

func (l *eventLog) record(ev TCPEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) count(kind TCPEventKind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, ev := range l.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

func (l *eventLog) find(kind TCPEventKind) (TCPEvent, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range l.events {
		if ev.Kind == kind {
			return ev, true
		}
	}
	return TCPEvent{}, false
}

// TestTCPEventsConnect: a mesh-up where the dialer starts before the
// listener must surface the retries as EvDialRetry (with increasing
// attempt numbers and non-nil errors), then EvDialOK on the dialer and
// EvAcceptOK on the listener.
func TestTCPEventsConnect(t *testing.T) {
	addrs := freeAddrs(t, 2)
	logs := [2]eventLog{}
	comms := make([]Comm, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	run := func(rank int, delay time.Duration) {
		defer wg.Done()
		time.Sleep(delay)
		opts := &TCPOptions{
			DialTimeout: 10 * time.Second,
			DialBackoff: 5 * time.Millisecond,
			OnEvent:     logs[rank].record,
		}
		comms[rank], errs[rank] = ConnectTCP(rank, 2, addrs, opts)
	}
	wg.Add(2)
	go run(1, 0)                    // dialer starts immediately and must retry
	go run(0, 200*time.Millisecond) // listener shows up late
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		defer comms[rank].Close()
	}

	if n := logs[1].count(EvDialRetry); n == 0 {
		t.Error("dialer recorded no EvDialRetry despite the late listener")
	}
	retry, _ := logs[1].find(EvDialRetry)
	if retry.Peer != 0 || retry.Err == nil {
		t.Errorf("EvDialRetry = %+v, want Peer 0 and a non-nil Err", retry)
	}
	ok, found := logs[1].find(EvDialOK)
	if !found {
		t.Fatal("dialer recorded no EvDialOK")
	}
	if ok.Peer != 0 || ok.Attempt < 1 || ok.Err != nil {
		t.Errorf("EvDialOK = %+v, want Peer 0, Attempt >= 1, nil Err", ok)
	}
	acc, found := logs[0].find(EvAcceptOK)
	if !found {
		t.Fatal("listener recorded no EvAcceptOK")
	}
	if acc.Peer != 1 || acc.Err != nil {
		t.Errorf("EvAcceptOK = %+v, want Peer 1, nil Err", acc)
	}
	// A clean same-machine mesh-up must not report transport failures.
	for rank := range logs {
		for _, kind := range []TCPEventKind{EvHandshakeErr, EvWriteErr} {
			if n := logs[rank].count(kind); n != 0 {
				t.Errorf("rank %d recorded %d %v events on a clean mesh-up", rank, n, kind)
			}
		}
	}
}

// TestTCPEventsWriteErr pins how a write failure surfaces now that sends
// are queued for a per-peer writer: the Send whose bytes are lost may
// itself succeed, but the failure is latched — EvWriteErr fires exactly
// once, from the writer, and every later Send, Isend, Wait and Barrier
// toward that peer returns that same error, as does Close.
func TestTCPEventsWriteErr(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var log eventLog
	comms := make([]Comm, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			defer wg.Done()
			opts := &TCPOptions{DialTimeout: 5 * time.Second}
			if rank == 1 {
				opts.OnEvent = log.record
			}
			comms[rank], errs[rank] = ConnectTCP(rank, 2, addrs, opts)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	defer comms[0].Close()

	// Kill the underlying socket out from under rank 1, then keep sending:
	// within a few sends the writer has hit the dead socket.
	c1 := comms[1].(*tcpComm)
	c1.conns[0].conn.Close()
	var latched error
	for deadline := time.Now().Add(5 * time.Second); latched == nil; {
		if time.Now().After(deadline) {
			t.Fatal("sends on a closed connection kept succeeding")
		}
		latched = c1.Send(0, 7, []byte("doomed"))
	}
	ev, found := log.find(EvWriteErr)
	if !found {
		t.Fatal("no EvWriteErr recorded for the failed write")
	}
	if ev.Peer != 0 || ev.Err != latched {
		t.Errorf("EvWriteErr = %+v, want Peer 0 and Err %v", ev, latched)
	}
	if err := c1.Send(0, 8, []byte("after")); err != latched {
		t.Errorf("Send after the failure: %v, want the latched %v", err, latched)
	}
	if _, err := c1.Isend(0, 9, nil); err != latched {
		t.Errorf("Isend after the failure: %v, want the latched %v", err, latched)
	}
	// A request handed out before the writer failed reports it from Wait.
	if _, err := (queuedSend{c1.conns[0]}).Wait(); err != latched {
		t.Errorf("Wait on an earlier Isend: %v, want the latched %v", err, latched)
	}
	if err := c1.Barrier(); err != latched {
		t.Errorf("Barrier after the failure: %v, want the latched %v", err, latched)
	}
	start := time.Now()
	if err := c1.Close(); err != latched {
		t.Errorf("Close: %v, want the latched %v", err, latched)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("Close on a failed peer took %v", el)
	}
	if n := log.count(EvWriteErr); n != 1 {
		t.Errorf("%d EvWriteErr events, want exactly 1", n)
	}
}

// TestTCPEventKindString: the String form is what ends up in logs and
// metric keys; lock the names.
func TestTCPEventKindString(t *testing.T) {
	want := map[TCPEventKind]string{
		EvDialRetry:    "dial-retry",
		EvDialOK:       "dial-ok",
		EvAcceptOK:     "accept-ok",
		EvHandshakeErr: "handshake-err",
		EvWriteErr:     "write-err",
	}
	for kind, name := range want {
		if got := kind.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", kind, got, name)
		}
	}
	if got := TCPEventKind(99).String(); got == "" {
		t.Error("unknown kind should still stringify")
	}
}
