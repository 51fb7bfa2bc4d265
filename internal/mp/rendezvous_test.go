package mp

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestRendezvousSendWaitsForReceiver(t *testing.T) {
	var recvPosted atomic.Bool
	err := LaunchOpts(2, WorldOptions{RendezvousThreshold: 0}, func(c Comm) error {
		if c.Rank() == 0 {
			req, err := c.Isend(1, 1, []byte("rendezvous payload"))
			if err != nil {
				return err
			}
			// The request must not be complete before the receiver posts.
			done, _, err := req.Test()
			if err != nil {
				return err
			}
			if done && !recvPosted.Load() {
				return fmt.Errorf("rendezvous send completed before receive was posted")
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			if !recvPosted.Load() {
				return fmt.Errorf("Wait returned before the receive was posted")
			}
			return nil
		}
		time.Sleep(30 * time.Millisecond) // let the sender observe pending
		buf := make([]byte, 32)
		recvPosted.Store(true)
		st, err := c.Recv(0, 1, buf)
		if err != nil {
			return err
		}
		if !bytes.Equal(buf[:st.Bytes], []byte("rendezvous payload")) {
			return fmt.Errorf("payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousThresholdBoundary(t *testing.T) {
	// Threshold 10: a 10-byte payload is eager (completes immediately), an
	// 11-byte payload is rendezvous.
	err := LaunchOpts(2, WorldOptions{RendezvousThreshold: 10}, func(c Comm) error {
		if c.Rank() == 0 {
			small, err := c.Isend(1, 1, make([]byte, 10))
			if err != nil {
				return err
			}
			if done, _, _ := small.Test(); !done {
				return fmt.Errorf("10-byte send should be eager")
			}
			big, err := c.Isend(1, 2, make([]byte, 11))
			if err != nil {
				return err
			}
			if done, _, _ := big.Test(); done {
				return fmt.Errorf("11-byte send should be rendezvous")
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			_, err = big.Wait()
			return err
		}
		buf := make([]byte, 16)
		if _, err := c.Recv(0, 1, buf); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		_, err := c.Recv(0, 2, buf)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousBlockingSend(t *testing.T) {
	// Blocking Send under rendezvous completes only after the receive —
	// exercised by a ping-pong that would deadlock if ordering were wrong.
	err := LaunchOpts(2, WorldOptions{RendezvousThreshold: 0}, func(c Comm) error {
		peer := 1 - c.Rank()
		for i := 0; i < 5; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, i, []byte{byte(i)}); err != nil {
					return err
				}
				buf := make([]byte, 1)
				if _, err := c.Recv(peer, i, buf); err != nil {
					return err
				}
			} else {
				buf := make([]byte, 1)
				if _, err := c.Recv(peer, i, buf); err != nil {
					return err
				}
				if err := c.Send(peer, i, buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousCloseFailsUnmatchedSender(t *testing.T) {
	w, comms, err := NewWorldOpts(2, WorldOptions{RendezvousThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	req, err := comms[0].Isend(1, 1, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := req.Wait()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Close()
	if err := <-done; err != ErrClosed {
		t.Errorf("unmatched rendezvous sender got %v, want ErrClosed", err)
	}
}

func TestCollectivesUnderRendezvous(t *testing.T) {
	// All collectives must still complete when every payload is
	// rendezvous: their send/recv pairings are properly ordered.
	err := LaunchOpts(5, WorldOptions{RendezvousThreshold: 0}, func(c Comm) error {
		sum, err := AllReduce(c, []float64{1}, opSum)
		if err != nil {
			return err
		}
		if sum[0] != 5 {
			return fmt.Errorf("allreduce = %g", sum[0])
		}
		buf := []byte{0}
		if c.Rank() == 2 {
			buf[0] = 7
		}
		if err := Bcast(c, 2, buf); err != nil {
			return err
		}
		if buf[0] != 7 {
			return fmt.Errorf("bcast = %d", buf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
