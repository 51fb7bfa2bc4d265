package mp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// connectToMutePeer meshes rank 0 of a 2-rank world with a hand-rolled
// rank 1 that completes the handshake and then never reads or writes
// another byte: a peer that is alive (the socket stays open) but stuck.
// The test owns both ends and closes them.
func connectToMutePeer(t *testing.T, opts *TCPOptions) (*tcpComm, net.Conn) {
	t.Helper()
	addrs := freeAddrs(t, 2)
	type dialed struct {
		conn net.Conn
		err  error
	}
	ch := make(chan dialed, 1)
	go func() {
		var conn net.Conn
		var err error
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if conn, err = net.DialTimeout("tcp", addrs[0], time.Second); err == nil || time.Now().After(deadline) {
				break
			}
		}
		if err == nil {
			var hello [helloLen]byte
			binary.BigEndian.PutUint32(hello[0:4], 1)
			binary.BigEndian.PutUint32(hello[4:8], opts.Epoch)
			if _, err = conn.Write(hello[:]); err == nil {
				_, err = io.ReadFull(conn, make([]byte, ackLen))
			}
		}
		ch <- dialed{conn, err}
	}()
	c, err := ConnectTCP(0, 2, addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	d := <-ch
	if d.err != nil {
		c.Close()
		t.Fatal(d.err)
	}
	return c.(*tcpComm), d.conn
}

// fillUntilBlocked sends 32 KiB frames to rank 1 until a Send fails and
// returns that error with the bytes accepted before it.
func fillUntilBlocked(c *tcpComm) (accepted int, err error) {
	frame := make([]byte, 32<<10)
	for {
		if err = c.Send(1, 0, frame); err != nil {
			return accepted, err
		}
		accepted += len(frame)
	}
}

// acceptedBound is what a sender can hand to a peer that never reads before
// it must block: the pending buffer, the buffer the writer holds in flight,
// and the two kernel socket buffers, which on Linux loopback autotune to a
// few MiB each. A transport that queued without bound sails past it.
const acceptedBound = 2*sendBufSize + 32<<20

// TestTCPFlowControlDeadline: a sender whose peer stops reading blocks at
// the buffer bound and returns ErrDeadline rather than growing memory; the
// control frames still get through the full buffer without blocking their
// callers, and an abort frees a blocked sender.
func TestTCPFlowControlDeadline(t *testing.T) {
	c, mute := connectToMutePeer(t, &TCPOptions{Deadline: 150 * time.Millisecond})
	defer mute.Close()
	accepted, err := fillUntilBlocked(c)
	if err != ErrDeadline {
		t.Fatalf("send to a peer that stopped reading: %v after %d bytes, want ErrDeadline", err, accepted)
	}
	if accepted > acceptedBound {
		t.Errorf("%d bytes accepted before blocking, bound %d", accepted, acceptedBound)
	}
	pc := c.conns[1]
	pc.mu.Lock()
	queued := len(pc.pend)
	pc.mu.Unlock()
	if queued > sendBufSize {
		t.Errorf("%d bytes pending, bound %d", queued, sendBufSize)
	}
	if st := c.WriteStats(); len(st) != 1 || st[0].Peer != 1 || st[0].Blocked < 100*time.Millisecond {
		t.Errorf("WriteStats = %+v, want peer 1 with the blocked time on record", st)
	}

	// Heartbeat, abort and goodbye frames take the headroom past the bound:
	// their callers must not wait for the deadline, let alone forever.
	start := time.Now()
	if err := c.send(1, ctlHeartbeat, nil, true); err != nil {
		t.Errorf("heartbeat behind a full buffer: %v", err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- c.Send(1, 1, make([]byte, 32<<10)) }()
	time.Sleep(20 * time.Millisecond) // let it block; the abort must free it either way
	cause := errors.New("give up on the stuck peer")
	if err := c.Abort(cause); err != nil {
		t.Fatal(err)
	}
	var ae *AbortError
	if err := <-blocked; !errors.As(err, &ae) || !errors.Is(err, cause) {
		t.Errorf("blocked sender after abort: %v, want *AbortError wrapping the cause", err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Errorf("heartbeat + abort behind a full buffer took %v", el)
	}
	// The headroom is bounded too: past it control frames are dropped.
	for i := 0; i < ctlHeadroom; i++ {
		if err = c.send(1, ctlHeartbeat, nil, true); err != nil {
			break
		}
	}
	if err != errBackedUp {
		t.Errorf("control frames past the headroom: %v, want errBackedUp", err)
	}
	mute.Close() // fails the stuck write, so Close need not wait out closeDrain
	start = time.Now()
	c.Close()
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("Close took %v", el)
	}
}

// TestTCPStuckPeerIOTimeout: with IOTimeout set and no Deadline, a peer
// that stops reading fails the writer inside the bound, the sender blocked
// behind it gets the same error, and Close returns promptly.
func TestTCPStuckPeerIOTimeout(t *testing.T) {
	var log eventLog
	const ioTimeout = 200 * time.Millisecond
	c, mute := connectToMutePeer(t, &TCPOptions{IOTimeout: ioTimeout, OnEvent: log.record})
	defer mute.Close()
	start := time.Now()
	accepted, err := fillUntilBlocked(c)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("send to a stuck peer: %v after %d bytes, want the writer's i/o timeout", err, accepted)
	}
	if el := time.Since(start); el > 10*ioTimeout {
		t.Errorf("stuck peer took %v to fail the sender (IOTimeout %v)", el, ioTimeout)
	}
	if accepted > acceptedBound {
		t.Errorf("%d bytes accepted before failing, bound %d", accepted, acceptedBound)
	}
	if err2 := c.Send(1, 0, nil); err2 != err {
		t.Errorf("next send: %v, want the latched %v", err2, err)
	}
	if n := log.count(EvWriteErr); n != 1 {
		t.Errorf("%d EvWriteErr events, want exactly 1", n)
	}
	start = time.Now()
	if cerr := c.Close(); cerr != err {
		t.Errorf("Close: %v, want the latched %v", cerr, err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("Close took %v", el)
	}
}

// TestTCPCloseDrainsQueue: frames queued by sends that have returned leave
// before Close tears the socket down, goodbye last.
func TestTCPCloseDrainsQueue(t *testing.T) {
	const msgs = 5000
	err := launchTCP(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			var v [8]byte
			for m := 0; m < msgs; m++ {
				binary.BigEndian.PutUint64(v[:], uint64(m))
				if err := c.Send(1, 0, v[:]); err != nil {
					return err
				}
			}
			return nil // launchTCP closes the endpoint right behind the last Send
		}
		var v [8]byte
		for m := 0; m < msgs; m++ {
			if _, err := c.Recv(0, 0, v[:]); err != nil {
				return fmt.Errorf("message %d: %w", m, err)
			}
			if got := binary.BigEndian.Uint64(v[:]); got != uint64(m) {
				return fmt.Errorf("message %d carried %d", m, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPConcurrentSendersNonOvertaking is the -race stress of the send
// queue: several goroutines send to one peer at once, each on its own tag,
// mixing small frames with ones that take the write-through path, and every
// (source, tag) stream must arrive complete and in order.
func TestTCPConcurrentSendersNonOvertaking(t *testing.T) {
	const senders, msgs = 4, 1500
	size := func(tag, m int) int {
		if m%500 == 250+tag {
			return sendBufSize + 1 + tag // write-through
		}
		return 8 + (m*7+tag)%200
	}
	err := launchTCP(t, 2, func(c Comm) error {
		errs := make([]error, senders)
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(tag int) {
				defer wg.Done()
				buf := make([]byte, sendBufSize+1+senders)
				for m := 0; m < msgs && errs[tag] == nil; m++ {
					p := buf[:size(tag, m)]
					binary.BigEndian.PutUint64(p, uint64(m))
					p[len(p)-1] = byte(m)
					if c.Rank() == 0 {
						errs[tag] = c.Send(1, tag, p)
						continue
					}
					st, err := c.Recv(0, tag, buf)
					switch {
					case err != nil:
						errs[tag] = err
					case st.Bytes != len(p) || binary.BigEndian.Uint64(buf) != uint64(m) || buf[st.Bytes-1] != byte(m):
						errs[tag] = fmt.Errorf("tag %d message %d: got %d bytes numbered %d",
							tag, m, st.Bytes, binary.BigEndian.Uint64(buf))
					}
				}
			}(g)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tcpSmallMsgAllocs is the allocation ceiling of one small message through
// the TCP transport, receive side included, in a one-way stream: a frame
// that finds its receive posted allocates nothing, one that arrives early
// costs its envelope (which holds a payload this small inline). Measured:
// 1.0 at ~0.6 µs per message; with a write pair per frame, an op, a channel,
// a payload and an envelope per message it was 7.0 at ~5.9 µs.
const tcpSmallMsgAllocs = 4

// BenchmarkTCPSmallMsgStream is node3d-fine's message pattern without the
// runner: 2 ranks over loopback, 16 384 64-byte messages one way, closed by
// a Barrier. It reports what the start-up term of a transfer costs here
// (ns/msg, allocs/msg) and how many frames the writer coalesces per socket
// write, and fails above tcpSmallMsgAllocs allocations per message.
func BenchmarkTCPSmallMsgStream(b *testing.B) {
	const msgs, size = 16384, 64
	addrs := freeAddrs(b, 2)
	comms := make([]Comm, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range comms {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comms[r], errs[r] = ConnectTCP(r, 2, addrs, nil)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
		defer comms[r].Close()
	}
	stream := func() {
		done := make(chan error, 1)
		go func() {
			buf := make([]byte, size)
			for m := 0; m < msgs; m++ {
				if _, err := comms[1].Recv(0, m, buf); err != nil {
					done <- err
					return
				}
			}
			done <- comms[1].Barrier()
		}()
		buf := make([]byte, size)
		for m := 0; m < msgs; m++ {
			if err := comms[0].Send(1, m, buf); err != nil {
				b.Fatal(err)
			}
		}
		if err := errors.Join(comms[0].Barrier(), <-done); err != nil {
			b.Fatal(err)
		}
	}
	stream() // warm the buffers and the recvOp pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st0 := comms[0].(*tcpComm).WriteStats()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	st1 := comms[0].(*tcpComm).WriteStats()[0]
	total := float64(b.N) * msgs
	perMsg := float64(after.Mallocs-before.Mallocs) / total
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/msg")
	b.ReportMetric(perMsg, "allocs/msg")
	b.ReportMetric(float64(st1.Frames-st0.Frames)/float64(st1.Writes-st0.Writes), "frames/write")
	if perMsg > tcpSmallMsgAllocs {
		b.Errorf("%.1f allocations per message exceed the budget of %d", perMsg, tcpSmallMsgAllocs)
	}
}
