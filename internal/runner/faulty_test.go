package runner

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/mp"
	"repro/internal/stencil"
)

// delayComm wraps a Comm and sleeps before a replayable share of its
// operations: operation op of rank r waits when u = fault.Unit(seed, r, op)
// falls below prob, for u/prob of max. Messages are only slowed, never
// lost or reordered, so a correct executor must produce the same grid.
type delayComm struct {
	mp.Comm
	seed uint64
	prob float64
	max  time.Duration
	ops  atomic.Int64
}

func (d *delayComm) delay() {
	op := d.ops.Add(1)
	if u := fault.Unit(d.seed, int64(d.Rank()), op); u < d.prob {
		time.Sleep(time.Duration(u / d.prob * float64(d.max)))
	}
}

func (d *delayComm) Send(dst, tag int, data []byte) error {
	d.delay()
	return d.Comm.Send(dst, tag, data)
}

func (d *delayComm) Isend(dst, tag int, data []byte) (mp.Request, error) {
	d.delay()
	return d.Comm.Isend(dst, tag, data)
}

func (d *delayComm) Recv(src, tag int, buf []byte) (mp.Status, error) {
	d.delay()
	return d.Comm.Recv(src, tag, buf)
}

func (d *delayComm) Irecv(src, tag int, buf []byte) (mp.Request, error) {
	d.delay()
	return d.Comm.Irecv(src, tag, buf)
}

func (d *delayComm) RecvInit(src int, buf []byte) (mp.Persistent, error) {
	p, err := d.Comm.RecvInit(src, buf)
	if err != nil {
		return nil, err
	}
	return delayedRecv{p, d}, nil
}

// delayedRecv delays every Start of a persistent receive, as delayComm
// delays every Irecv.
type delayedRecv struct {
	mp.Persistent
	d *delayComm
}

func (r delayedRecv) Start(tag int) error {
	r.d.delay()
	return r.Persistent.Start(tag)
}

func (d *delayComm) Barrier() error {
	d.delay()
	return d.Comm.Barrier()
}

// TestRunUnderDelayFaults: injected message delays (delayComm) slow the
// real execution down but must never change the computed grid — the
// runner's correctness depends only on message ordering, which the
// injector preserves.
func TestRunUnderDelayFaults(t *testing.T) {
	cfg := Config{
		Grid:   model.Grid3D{I: 4, J: 4, K: 32, PI: 2, PJ: 2},
		V:      8,
		Kernel: stencil.Sqrt3D{},
		Mode:   Overlapped,
	}
	err := mp.Launch(4, func(c mp.Comm) error {
		f := &delayComm{Comm: c, seed: 11, prob: 0.5, max: time.Millisecond}
		local, _, err := Run(f, cfg)
		if err != nil {
			return err
		}
		grid, err := Gather(f, cfg, local)
		if err != nil {
			return err
		}
		if f.Rank() != 0 {
			return nil
		}
		if f.ops.Load() == 0 {
			return fmt.Errorf("no operations passed through the injector")
		}
		diff, err := VerifySequential(grid, cfg)
		if err != nil {
			return err
		}
		if diff != 0 {
			return fmt.Errorf("delay faults corrupted the result: max diff %g", diff)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
