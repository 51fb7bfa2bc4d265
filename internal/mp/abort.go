package mp

import "sync/atomic"

// aborter is the once-only abort latch shared by all blocking machinery of
// a communicator. The first abort stores the error and closes the channel;
// blocked operations select on done() and pick the error up via cause(),
// which every send checks and so must not take a lock.
type aborter struct {
	ch  chan struct{}
	err atomic.Pointer[AbortError]
}

func newAborter() *aborter { return &aborter{ch: make(chan struct{})} }

// abort latches e; only the first call wins. Reports whether this call was
// the one that latched.
func (a *aborter) abort(e *AbortError) bool {
	if !a.err.CompareAndSwap(nil, e) {
		return false
	}
	close(a.ch)
	return true
}

// done returns a channel closed once the communicator is aborted.
func (a *aborter) done() <-chan struct{} { return a.ch }

// cause returns the latched abort error, or nil while not aborted.
func (a *aborter) cause() *AbortError { return a.err.Load() }

// abortChildren returns the ranks this rank must forward an abort to, on
// the binomial dissemination tree rooted at origin: the same log-depth tree
// the collectives use, so the poison reaches all ranks in ⌈log2 size⌉ hops.
// Virtual rank v's children are v+2^k for every power of two 2^k > v.
func abortChildren(rank, origin, size int) []int {
	v := vrank(rank, origin, size)
	var out []int
	for mask := 1; mask < size; mask <<= 1 {
		if v < mask && v+mask < size {
			out = append(out, arank(v+mask, origin, size))
		}
	}
	return out
}
