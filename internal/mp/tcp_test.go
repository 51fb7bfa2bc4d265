package mp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeFrame decodes one frame from a fresh stream the way a connection's
// reader does; FuzzFrameDecode drives it.
func decodeFrame(r io.Reader, size int) (src, tag int, payload []byte, err error) {
	return newFrameReader(r, size).next()
}

// freeAddrs reserves n distinct loopback ports by listening and closing.
func freeAddrs(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// launchTCP runs fn on n TCP-connected ranks (one goroutine per rank,
// separate sockets — the same code path a multi-process deployment uses).
func launchTCP(t *testing.T, n int, fn func(c Comm) error) error {
	t.Helper()
	addrs := freeAddrs(t, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c, err := ConnectTCP(rank, n, addrs, nil)
			if err != nil {
				errs[rank] = err
				return
			}
			defer c.Close()
			errs[rank] = fn(c)
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return fmt.Errorf("rank %d: %w", i, e)
		}
	}
	return nil
}

func TestTCPValidation(t *testing.T) {
	if _, err := ConnectTCP(0, 0, nil, nil); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := ConnectTCP(3, 2, []string{"a", "b"}, nil); err == nil {
		t.Error("rank out of range accepted")
	}
	if _, err := ConnectTCP(0, 2, []string{"only-one"}, nil); err == nil {
		t.Error("short address list accepted")
	}
}

func TestTCPSendRecv(t *testing.T) {
	err := launchTCP(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 4, []byte("over tcp"))
		}
		buf := make([]byte, 32)
		st, err := c.Recv(0, 4, buf)
		if err != nil {
			return err
		}
		if !bytes.Equal(buf[:st.Bytes], []byte("over tcp")) {
			return fmt.Errorf("got %q", buf[:st.Bytes])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPSelfSend(t *testing.T) {
	err := launchTCP(t, 2, func(c Comm) error {
		if err := c.Send(c.Rank(), 1, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		buf := make([]byte, 1)
		st, err := c.Recv(c.Rank(), 1, buf)
		if err != nil {
			return err
		}
		if st.Source != c.Rank() || buf[0] != byte(c.Rank()) {
			return fmt.Errorf("self-send mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPNonBlockingAndWildcard(t *testing.T) {
	err := launchTCP(t, 3, func(c Comm) error {
		if c.Rank() != 2 {
			req, err := c.Isend(2, 9, []byte{byte(10 + c.Rank())})
			if err != nil {
				return err
			}
			_, err = req.Wait()
			return err
		}
		got := map[byte]bool{}
		for i := 0; i < 2; i++ {
			buf := make([]byte, 1)
			if _, err := c.Recv(AnySource, AnyTag, buf); err != nil {
				return err
			}
			got[buf[0]] = true
		}
		if !got[10] || !got[11] {
			return fmt.Errorf("missing payloads: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPBarrier(t *testing.T) {
	err := launchTCP(t, 4, func(c Comm) error {
		for round := 0; round < 5; round++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPOrdering(t *testing.T) {
	const n = 50
	err := launchTCP(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 1, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			buf := make([]byte, 1)
			if _, err := c.Recv(0, 1, buf); err != nil {
				return err
			}
			if buf[0] != byte(i) {
				return fmt.Errorf("out of order at %d", i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPBadHandshakeNoLeak: a peer whose hello claims an out-of-range
// rank must fail ConnectTCP, and the failure must close both the listener
// and the accepted connection — nothing leaks, nothing hangs.
func TestTCPBadHandshakeNoLeak(t *testing.T) {
	addrs := freeAddrs(t, 2)
	done := make(chan error, 1)
	go func() {
		c, err := ConnectTCP(0, 2, addrs, &TCPOptions{DialTimeout: 5 * time.Second})
		if err == nil {
			c.Close()
		}
		done <- err
	}()

	// Pose as the missing rank 1, but claim an impossible rank in the hello.
	var conn net.Conn
	var err error
	for i := 0; i < 200; i++ {
		conn, err = net.DialTimeout("tcp", addrs[0], time.Second)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("could not reach rank 0 listener: %v", err)
	}
	var hello [helloLen]byte
	binary.BigEndian.PutUint32(hello[0:4], uint32(int32(7))) // size is 2
	binary.BigEndian.PutUint32(hello[4:8], 0)                // epoch 0 matches the default
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("ConnectTCP accepted an out-of-range peer rank")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ConnectTCP hung after bad handshake")
	}
	// The listener must be gone: a fresh dial may be refused outright or
	// accepted by the kernel backlog and then closed — either way no new
	// handshake is served.
	if c2, err := net.DialTimeout("tcp", addrs[0], time.Second); err == nil {
		c2.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := c2.Read(make([]byte, 1)); err == nil {
			t.Error("listener still serving after failed handshake")
		}
		c2.Close()
	}
	// The accepted connection must have been closed server-side: the read
	// returns EOF/reset rather than blocking until the deadline.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("bad-handshake connection left open (read err: %v)", err)
	}
	conn.Close()
}

// TestTCPLateRankRecovery: the exponential-backoff dial loop must ride out
// a peer that starts listening well after the dialer.
func TestTCPLateRankRecovery(t *testing.T) {
	addrs := freeAddrs(t, 2)
	opts := &TCPOptions{DialTimeout: 10 * time.Second, DialBackoff: 5 * time.Millisecond}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	run := func(rank int, delay time.Duration) {
		defer wg.Done()
		time.Sleep(delay)
		c, err := ConnectTCP(rank, 2, addrs, opts)
		if err != nil {
			errs[rank] = err
			return
		}
		defer c.Close()
		if rank == 1 {
			errs[rank] = c.Send(0, 1, []byte("late"))
			return
		}
		buf := make([]byte, 8)
		st, err := c.Recv(1, 1, buf)
		if err == nil && string(buf[:st.Bytes]) != "late" {
			err = fmt.Errorf("got %q", buf[:st.Bytes])
		}
		errs[rank] = err
	}
	wg.Add(2)
	go run(1, 0)                    // dialer starts immediately
	go run(0, 300*time.Millisecond) // listener shows up late
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", rank, err)
		}
	}
}

// TestTCPConnectCancel: closing the Cancel channel must abort a mesh-up
// promptly — both a rank blocked in Accept and one stuck redialing —
// instead of letting it wait out the full dial timeout.
func TestTCPConnectCancel(t *testing.T) {
	for _, tc := range []struct {
		name string
		rank int // rank 0 of 2 blocks accepting; rank 1 blocks dialing
	}{
		{"accepting", 0},
		{"dialing", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs := freeAddrs(t, 2)
			cancel := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				c, err := ConnectTCP(tc.rank, 2, addrs,
					&TCPOptions{DialTimeout: 30 * time.Second, Cancel: cancel})
				if err == nil {
					c.Close()
				}
				done <- err
			}()
			time.Sleep(50 * time.Millisecond)
			close(cancel)
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("canceled ConnectTCP reported success")
				}
				if !strings.Contains(err.Error(), "cancel") {
					t.Errorf("error does not mention cancellation: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("ConnectTCP ignored Cancel and hung")
			}
		})
	}
}

// TestTCPOversizeSendFails: a payload over maxFrameLen fails in Send and
// Isend themselves, before a byte is queued (the peer's reader would reject
// the frame and stop reading, and both ranks would block for good), and the
// connection still carries the next message.
func TestTCPOversizeSendFails(t *testing.T) {
	huge := make([]byte, maxFrameLen+1)
	err := launchTCP(t, 2, func(c Comm) error {
		if c.Rank() == 1 {
			buf := make([]byte, 16)
			st, err := c.Recv(0, AnyTag, buf)
			if err != nil {
				return err
			}
			if st.Tag != 2 || string(buf[:st.Bytes]) != "after" {
				return fmt.Errorf("first message: tag %d %q, want tag 2 %q", st.Tag, buf[:st.Bytes], "after")
			}
			return nil
		}
		tc := c.(*tcpComm)
		if err := c.Send(1, 1, huge); err == nil || !strings.Contains(err.Error(), "maxFrameLen") {
			return fmt.Errorf("Send of %d bytes: %v, want an error naming maxFrameLen", len(huge), err)
		}
		if _, err := c.Isend(1, 1, huge); err == nil || !strings.Contains(err.Error(), "maxFrameLen") {
			return fmt.Errorf("Isend of %d bytes: %v, want an error naming maxFrameLen", len(huge), err)
		}
		if frames := tc.WriteStats()[0].Frames; frames != 0 {
			return fmt.Errorf("%d frames queued by the failed sends, want 0", frames)
		}
		if err := c.Send(1, 2, []byte("after")); err != nil {
			return fmt.Errorf("the send after the failed ones: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	err := launchTCP(t, 2, func(c Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, payload)
		}
		buf := make([]byte, len(payload))
		st, err := c.Recv(0, 1, buf)
		if err != nil {
			return err
		}
		if st.Bytes != len(payload) || !bytes.Equal(buf, payload) {
			return fmt.Errorf("large payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
