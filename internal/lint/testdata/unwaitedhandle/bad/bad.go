// Package bad leaks non-blocking request handles in every way the
// unwaitedhandle analyzer flags.
package bad

import "repro/internal/mp"

func leakDiscard(c mp.Comm, data []byte) {
	c.Isend(1, 0, data) // handle dropped on the floor
}

func leakBlank(c mp.Comm, buf []byte) {
	_, _ = c.Irecv(0, 0, buf) // handle discarded with _
}

func leakUnconsumed(c mp.Comm, data []byte) error {
	req, err := c.Isend(1, 0, data)
	if err != nil {
		return err
	}
	if req == nil { // a nil check is not consumption
		return nil
	}
	return nil
}

func leakStarted(c mp.Comm, buf []byte) error {
	p, err := c.RecvInit(0, buf)
	if err != nil {
		return err
	}
	if p == nil { // a nil check is not consumption
		return nil
	}
	return p.Start(0) // a round begun that nothing waits for
}

type ghosts struct{ recv [2]mp.Persistent }

func leakStartedField(g *ghosts, t int) error {
	return g.recv[t&1].Start(t) // no Wait on any of g.recv
}

func mustInit(c mp.Comm, buf []byte) mp.Persistent {
	p, _ := c.RecvInit(0, buf)
	return p
}

func leakUnnamed(c mp.Comm, buf []byte) error {
	return mustInit(c, buf).Start(1) // no name to Wait on
}

// server is no request (it has no Wait), so its Start method is checked
// like any other function: the round it begins is never waited for.
type server struct{ ghost mp.Persistent }

func (s *server) Start() error {
	return s.ghost.Start(0)
}
