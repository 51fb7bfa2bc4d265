package mp

import (
	"bytes"
	"fmt"
	"testing"
)

// TestSendBufferReusableAfterCompletion pins the buffer-ownership contract
// stated on Comm: once Send has returned, or Wait on an Isend's request
// has, the transport is done with the caller's slice. Rank 0 sends every
// message from ONE buffer and scribbles over it after each completion; the
// receiver must still see every payload intact. On the buffering
// transports the receiver does not even post its receives until all sends
// have completed and been scribbled over, so a transport that kept a
// reference to the slice instead of copying or writing it out would
// deliver the scribble.
func TestSendBufferReusableAfterCompletion(t *testing.T) {
	transports := []struct {
		name     string
		buffered bool // sends complete without a matching receive
		launch   func(n int, fn func(Comm) error) error
	}{
		{"inproc-eager", true, Launch},
		{"inproc-rendezvous", false, func(n int, fn func(Comm) error) error {
			return LaunchOpts(n, WorldOptions{RendezvousThreshold: 0}, fn)
		}},
		{"tcp", true, func(n int, fn func(Comm) error) error { return launchTCP(t, n, fn) }},
	}
	// Besides a handful of mid-sized messages: 10⁴ back-to-back small ones,
	// which on TCP sit coalesced in the peer's pending buffer while the
	// sender scribbles, and one frame larger than that buffer, which takes
	// the write-through path out of the caller's own slice.
	shapes := []struct{ msgs, size int }{{8, 4096}, {10000, 64}, {1, sendBufSize + 1}}
	for _, tr := range transports {
		for _, sh := range shapes {
			msgs, size := sh.msgs, sh.size
			fill := func(m int) byte { return byte(m%251 + 1) }
			err := tr.launch(2, func(c Comm) error {
				if c.Rank() == 0 {
					buf := make([]byte, size)
					for m := 0; m < msgs; m++ {
						for i := range buf {
							buf[i] = fill(m)
						}
						if m%2 == 0 {
							if err := c.Send(1, m, buf); err != nil {
								return err
							}
						} else {
							req, err := c.Isend(1, m, buf)
							if err != nil {
								return err
							}
							if _, err := req.Wait(); err != nil {
								return err
							}
						}
						for i := range buf {
							buf[i] = 0xFF
						}
					}
					return c.Barrier()
				}
				if tr.buffered {
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				got := make([]byte, size)
				for m := 0; m < msgs; m++ {
					if _, err := c.Recv(0, m, got); err != nil {
						return err
					}
					if want := bytes.Repeat([]byte{fill(m)}, size); !bytes.Equal(got, want) {
						return fmt.Errorf("message %d arrived as %#x…, want %#x…: the sender's later writes leaked in", m, got[0], want[0])
					}
				}
				if !tr.buffered {
					return c.Barrier()
				}
				return nil
			})
			if err != nil {
				t.Errorf("%s, %d × %d bytes: %v", tr.name, msgs, size, err)
			}
		}
	}
}
