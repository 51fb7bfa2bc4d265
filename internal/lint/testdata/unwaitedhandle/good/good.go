// Package good consumes every non-blocking request handle it starts.
package good

import "repro/internal/mp"

type mailbox struct{ pending mp.Request }

func waited(c mp.Comm, data []byte) error {
	req, err := c.Isend(1, 0, data)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

func waitAll(c mp.Comm, data []byte) error {
	var reqs []mp.Request
	for t := 0; t < 4; t++ {
		req, err := c.Isend(1, t, data)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return mp.WaitAll(reqs...)
}

func stored(c mp.Comm, m *mailbox, buf []byte) error {
	var err error
	m.pending, err = c.Irecv(0, 0, buf)
	return err
}

func returned(c mp.Comm, buf []byte) (mp.Request, error) {
	return c.Irecv(mp.AnySource, mp.AnyTag, buf)
}

func propagated(c mp.Comm, buf []byte) error {
	next, err := c.Irecv(0, 1, buf)
	if err != nil {
		return err
	}
	cur := next // propagation counts as consumption
	_, err = cur.Wait()
	return err
}

type ghostRecvs struct{ recv [2]mp.Persistent }

func rounds(c mp.Comm, g *ghostRecvs, bufs [2][]byte) error {
	var err error
	for b := range g.recv {
		if g.recv[b], err = c.RecvInit(0, bufs[b]); err != nil {
			return err
		}
	}
	for t := 0; t < 8; t++ {
		if err := g.recv[t&1].Start(t); err != nil {
			return err
		}
		if _, err := g.recv[t&1].Wait(); err != nil {
			return err
		}
	}
	return nil
}

func startedThenWaitAll(c mp.Comm, buf []byte) error {
	p, err := c.RecvInit(0, buf)
	if err != nil {
		return err
	}
	if err := p.Start(0); err != nil {
		return err
	}
	return mp.WaitAll(p)
}

// countedRecv forwards Start: its caller waits for the round.
type countedRecv struct {
	mp.Persistent
	starts int
}

func (r *countedRecv) Start(tag int) error {
	r.starts++
	return r.Persistent.Start(tag)
}
