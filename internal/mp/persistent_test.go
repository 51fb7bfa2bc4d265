package mp

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// persistentTransports are the transports a persistent receive runs on:
// both in-process worlds and loopback TCP.
func persistentTransports(t *testing.T) []struct {
	name   string
	launch func(n int, fn func(Comm) error) error
} {
	return []struct {
		name   string
		launch func(n int, fn func(Comm) error) error
	}{
		{"inproc-eager", Launch},
		{"inproc-rendezvous", func(n int, fn func(Comm) error) error {
			return LaunchOpts(n, WorldOptions{RendezvousThreshold: 0}, fn)
		}},
		{"tcp", func(n int, fn func(Comm) error) error { return launchTCP(t, n, fn) }},
	}
}

// TestPersistentRecvRounds drives one persistent receive through many
// rounds on every transport: idle before its first Start, messages that
// arrive before their Start (queued unexpected) and after it (posted),
// shorter than the buffer and too long for it, Start refused while a round
// is pending, and Wait twice on a round returning the same outcome.
func TestPersistentRecvRounds(t *testing.T) {
	const rounds, size = 64, 16
	payload := func(m int) []byte { return bytes.Repeat([]byte{byte(m + 1)}, 1+m%size) }
	for _, tr := range persistentTransports(t) {
		err := tr.launch(2, func(c Comm) error {
			if c.Rank() == 0 {
				for m := 0; m < rounds; m++ {
					if m%8 == 7 { // after the receiver posted: it reached its Start first
						if err := c.Barrier(); err != nil {
							return err
						}
					}
					if err := c.Send(1, m, payload(m)); err != nil {
						return err
					}
				}
				// One message longer than the receive buffer, then one that fits.
				if err := c.Send(1, rounds, make([]byte, size+1)); err != nil {
					return err
				}
				return c.Send(1, rounds+1, []byte("ok"))
			}
			buf := make([]byte, size)
			p, err := c.RecvInit(0, buf)
			if err != nil {
				return err
			}
			if st, err := p.Wait(); err != nil || st != (Status{}) {
				return fmt.Errorf("Wait before the first Start: %+v, %v", st, err)
			}
			for m := 0; m < rounds; m++ {
				if err := p.Start(m); err != nil {
					return fmt.Errorf("round %d: Start: %w", m, err)
				}
				if m%8 == 7 {
					if err := p.Start(m); !errors.Is(err, ErrActive) {
						return fmt.Errorf("round %d: Start while pending: %v, want ErrActive", m, err)
					}
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				st, err := p.Wait()
				if err != nil {
					return fmt.Errorf("round %d: %w", m, err)
				}
				want := payload(m)
				if st != (Status{Source: 0, Tag: m, Bytes: len(want)}) || !bytes.Equal(buf[:st.Bytes], want) {
					return fmt.Errorf("round %d: %+v %v, want %d bytes of %d", m, st, buf[:st.Bytes], len(want), m+1)
				}
				if again, err := p.Wait(); again != st || err != nil {
					return fmt.Errorf("round %d: second Wait %+v, %v", m, again, err)
				}
				if done, again, err := p.Test(); !done || again != st || err != nil {
					return fmt.Errorf("round %d: Test %v %+v, %v", m, done, again, err)
				}
			}
			if err := p.Start(rounds); err != nil {
				return err
			}
			if _, err := p.Wait(); !errors.Is(err, ErrTruncated) {
				return fmt.Errorf("oversized message: %v, want ErrTruncated", err)
			}
			if err := p.Start(rounds + 1); err != nil {
				return err
			}
			if st, err := p.Wait(); err != nil || string(buf[:st.Bytes]) != "ok" {
				return fmt.Errorf("round after a truncation: %q, %v", buf[:st.Bytes], err)
			}
			return nil
		})
		if err != nil {
			t.Errorf("%s: %v", tr.name, err)
		}
	}
}

// TestPersistentRecvValidation: RecvInit checks its source like Irecv, and
// Start its tag; a Start refused for its tag fails its round's Wait too,
// which then reports neither the round before nor a later message.
func TestPersistentRecvValidation(t *testing.T) {
	w, comms, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := comms[0].RecvInit(2, nil); err == nil {
		t.Error("RecvInit from rank 2 of 2 succeeded")
	}
	p, err := comms[0].RecvInit(AnySource, make([]byte, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := comms[1].Send(0, 3, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(AnyTag); err != nil {
		t.Fatal(err)
	}
	if st, err := p.Wait(); err != nil || st != (Status{Source: 1, Tag: 3, Bytes: 1}) {
		t.Errorf("wildcard round: %+v, %v", st, err)
	}
	refused := p.Start(-2)
	if refused == nil {
		t.Fatal("Start with tag -2 succeeded")
	}
	if st, err := p.Wait(); err != refused || st != (Status{}) {
		t.Errorf("Wait on the refused Start: %+v, %v, want %v", st, err, refused)
	}
	if done, st, err := p.Test(); !done || err != refused || st != (Status{}) {
		t.Errorf("Test on the refused Start: %v %+v, %v, want %v", done, st, err, refused)
	}
}

// TestPersistentRecvDeadline: a round's Wait keeps the communicator's
// deadline. Every round's Wait times its full deadline from its own start
// (the op's one timer is reset, not left running from the round before),
// an expired round is withdrawn, and the next Start takes the message it
// missed.
func TestPersistentRecvDeadline(t *testing.T) {
	const deadline, late = 400 * time.Millisecond, 250 * time.Millisecond
	w, comms, err := NewWorldOpts(2, WorldOptions{RendezvousThreshold: -1, Deadline: deadline})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p, err := comms[0].RecvInit(1, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Two rounds each answered after `late`: together past one deadline,
	// each inside its own.
	for m := 0; m < 2; m++ {
		if err := p.Start(m); err != nil {
			t.Fatal(err)
		}
		sent := make(chan error, 1)
		go func() {
			time.Sleep(late)
			sent <- comms[1].Send(0, m, []byte("x"))
		}()
		if _, err := p.Wait(); err != nil {
			t.Fatalf("round %d answered after %v: %v", m, late, err)
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := p.Start(7); err != nil {
		t.Fatal(err)
	}
	_, err = p.Wait()
	wantWithin(t, "Wait on a silent peer", start, err, ErrDeadline, deadline+2*time.Second)
	if _, err := p.Wait(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("second Wait after the deadline: %v", err)
	}
	if err := comms[1].Send(0, 7, []byte("late")); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(7); err != nil {
		t.Fatal(err)
	}
	if st, err := p.Wait(); err != nil || st.Bytes != 4 {
		t.Fatalf("round after the expired one: %+v, %v", st, err)
	}
}

// TestPersistentRecvStaleTick: a kept deadline timer can hold the tick of
// an earlier Wait that its Stop came too late for. The next Wait must take
// that early tick for what it is and keep waiting for its own deadline.
func TestPersistentRecvStaleTick(t *testing.T) {
	w, comms, err := NewWorldOpts(2, WorldOptions{RendezvousThreshold: -1, Deadline: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p, err := comms[0].RecvInit(1, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	op := &p.(*persistentRecv).recvOp
	op.timer = time.NewTimer(time.Nanosecond)
	time.Sleep(10 * time.Millisecond)
	op.timer.Stop() // too late: the tick stays in the channel
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		sent <- comms[1].Send(0, 0, []byte("x"))
	}()
	if _, err := p.Wait(); err != nil {
		t.Fatalf("Wait with a stale tick in its timer: %v", err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestPersistentRecvFailures: a pending round fails with the abort or close
// that poisons the mailbox, and so does every later Start and its Wait; an
// in-process endpoint closed on its own refuses Start with ErrClosed, and
// that round's Wait reports ErrClosed rather than the round before.
func TestPersistentRecvFailures(t *testing.T) {
	cause := errors.New("rank 1 gave up")
	for _, tc := range []struct {
		name string
		fail func(w *World, comms []Comm)
		want error
	}{
		{"abort", func(_ *World, comms []Comm) { _ = comms[1].Abort(cause) }, ErrAborted},
		{"close", func(w *World, _ []Comm) { _ = w.Close() }, ErrClosed},
	} {
		w, comms, err := NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		p, err := comms[0].RecvInit(1, make([]byte, 8))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(0); err != nil {
			t.Fatal(err)
		}
		go func() {
			time.Sleep(10 * time.Millisecond)
			tc.fail(w, comms)
		}()
		if _, err := p.Wait(); !errors.Is(err, tc.want) {
			t.Errorf("%s: pending round: %v, want %v", tc.name, err, tc.want)
		}
		if err := p.Start(1); !errors.Is(err, tc.want) {
			t.Errorf("%s: Start after: %v, want %v", tc.name, err, tc.want)
		}
		if _, err := p.Wait(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Wait on the refused Start: %v, want %v", tc.name, err, tc.want)
		}
		w.Close()
	}

	w, comms, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p, err := comms[0].RecvInit(1, make([]byte, 8))
	if err != nil {
		t.Fatal(err)
	}
	if err := comms[1].Send(0, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	comms[0].Close()
	if err := p.Start(1); err != ErrClosed {
		t.Errorf("Start on a closed endpoint: %v, want ErrClosed", err)
	}
	if st, err := p.Wait(); err != ErrClosed || st != (Status{}) {
		t.Errorf("Wait on the Start the closed endpoint refused: %+v, %v, want ErrClosed", st, err)
	}
	if _, err := comms[0].RecvInit(1, nil); err != ErrClosed {
		t.Errorf("RecvInit on a closed endpoint: %v, want ErrClosed", err)
	}
}

// TestPersistentRecvAllocationFree: once made, a persistent receive takes a
// steady stream of 64-byte messages — node3d-fine's faces — without one
// allocation per message, on both transports, with and without a deadline.
// The two ranks play ping-pong, each re-arming its receive before the send
// its partner answers, so every message finds its receive posted and every
// Wait blocks (on the deadline's timer, where there is one); a message that
// beats its Start to the mailbox would cost its envelope, which is the
// mailbox's and not the receive's. The count is the whole process's (both
// ranks and the transport goroutines); what two runs of different lengths
// share — the goroutine, the closing barrier — cancels in their difference.
func TestPersistentRecvAllocationFree(t *testing.T) {
	const size = 64
	for _, deadline := range []time.Duration{0, time.Minute} {
		for _, tr := range []struct {
			name    string
			connect func() ([]Comm, func())
		}{
			{"inproc", func() ([]Comm, func()) {
				w, comms, err := NewWorldOpts(2, WorldOptions{RendezvousThreshold: -1, Deadline: deadline})
				if err != nil {
					t.Fatal(err)
				}
				return comms, func() { w.Close() }
			}},
			{"tcp", func() ([]Comm, func()) {
				addrs := freeAddrs(t, 2)
				comms := make([]Comm, 2)
				errs := make([]error, 2)
				var wg sync.WaitGroup
				for r := range comms {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						comms[r], errs[r] = ConnectTCP(r, 2, addrs, &TCPOptions{Deadline: deadline})
					}(r)
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					t.Fatal(err)
				}
				return comms, func() { comms[0].Close(); comms[1].Close() }
			}},
		} {
			comms, done := tr.connect()
			buf := make([]byte, size)
			p, err := comms[1].RecvInit(0, buf)
			if err != nil {
				t.Fatal(err)
			}
			echoed, err := comms[0].RecvInit(1, make([]byte, size))
			if err != nil {
				t.Fatal(err)
			}
			recvd := make(chan error, 1)
			// exchange plays msgs rounds: rank 0 sends m and waits for its
			// echo; rank 1 waits for m, starts round m+1, then echoes m.
			exchange := func(msgs int) {
				go func() {
					err := p.Start(0)
					if err == nil {
						err = comms[1].Barrier()
					}
					for m := 0; m < msgs && err == nil; m++ {
						if _, err = p.Wait(); err != nil {
							break
						}
						if m+1 < msgs {
							if err = p.Start(m + 1); err != nil {
								break
							}
						}
						err = comms[1].Send(0, m, buf)
					}
					recvd <- errors.Join(err, comms[1].Barrier())
				}()
				if err := comms[0].Barrier(); err != nil { // rank 1's first Start is posted
					t.Fatal(err)
				}
				data := make([]byte, size)
				for m := 0; m < msgs; m++ {
					err := echoed.Start(m)
					if err == nil {
						err = comms[0].Send(1, m, data)
					}
					if err == nil {
						_, err = echoed.Wait()
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := errors.Join(comms[0].Barrier(), <-recvd); err != nil {
					t.Fatal(err)
				}
			}
			const msgs = 2048
			exchange(msgs) // warm the timers and the transport's buffers
			mallocs := func(msgs int) uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				exchange(msgs)
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs
			}
			short, long := mallocs(msgs), mallocs(2*msgs)
			perMsg := (float64(long) - float64(short)) / msgs
			what := fmt.Sprintf("%s deadline=%v", tr.name, deadline)
			t.Logf("%s: %d allocations for %d round trips, %d for %d: %.4f per round trip", what, short, msgs, long, 2*msgs, perMsg)
			// One allocation per message would read 2 (two messages a
			// round trip); the runtime's own strays (a goroutine stack, a
			// GC cycle, the race detector's bookkeeping) are a few dozen
			// in a run.
			if perMsg > 0.05 {
				t.Errorf("%s: %.4f allocations per round trip into persistent receives, want 0", what, perMsg)
			}
			done()
		}
	}
}
