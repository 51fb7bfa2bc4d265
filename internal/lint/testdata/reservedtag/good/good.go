// Package good sticks to non-negative tags and mp's own named wildcards.
// Type-checked under a spoofed internal/runner path.
package good

import "repro/internal/mp"

func listen(c mp.Comm, buf []byte) error {
	if _, err := c.Recv(mp.AnySource, mp.AnyTag, buf); err != nil {
		return err
	}
	return c.Send(0, 7, buf)
}

func listenPersistent(c mp.Comm, buf []byte) error {
	p, err := c.RecvInit(mp.AnySource, buf)
	if err != nil {
		return err
	}
	if err := p.Start(mp.AnyTag); err != nil {
		return err
	}
	if err := p.Start(3); err != nil {
		return err
	}
	_, err = p.Wait()
	return err
}
