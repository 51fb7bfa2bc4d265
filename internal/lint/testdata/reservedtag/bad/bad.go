// Package bad passes negative source/tag constants to point-to-point
// calls outside internal/mp: collisions with the transport's control
// plane. Type-checked under a spoofed internal/runner path.
package bad

import "repro/internal/mp"

const goodbye = -6

func forge(c mp.Comm, buf []byte) {
	_ = c.Send(1, -5, nil)                         // the heartbeat control tag
	_, _ = c.Recv(-1, 0, buf)                      // raw wildcard literal, not mp.AnySource
	_, _ = c.Recv(0, goodbye, buf)                 // a local constant still folds to −6
	if p, err := c.RecvInit(-1, buf); err == nil { // raw wildcard source
		_ = p.Start(-4) // the abort-tree control tag
		_, _ = p.Wait()
	}
}
