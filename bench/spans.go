package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// The traced run records spans from the harness's own files, around the
// calls into each layer's public functions; nothing inside the program is
// instrumented (that is ROADMAP item 4). Spans stay in memory until the
// run ends.

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's epoch. Parent is the index of the span that caused this one,
// -1 for a root. Op identifies the workload operation (rank or request).
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder collects the spans of one goroutine (a rank, a client); it is
// not safe for concurrent use. Recorders of one traced run share an epoch
// and are merged when the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(layer, name string, parent, op int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Layer: layer, Name: name, Start: r.now(), End: -1, Parent: parent, Op: op})
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = r.now() }

// mergeSpans concatenates per-goroutine recordings, rebasing parent ids.
func mergeSpans(recs ...*recorder) []span {
	var all []span
	for _, r := range recs {
		base := len(all)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// writeSpansFile dumps the recorded spans as one JSON array (-spans).
func writeSpansFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per layer, the summed self time of its spans in
// nanoseconds, and the summed duration of the root spans. A span's self
// time is its duration minus the part of its interval that its direct
// children cover; children may nest (they have their own children) or
// overlap each other (two outstanding non-blocking requests), so the
// covered part is the length of the union of the child intervals clipped
// to the parent, not their sum.
func selfTimes(spans []span) (self map[string]int64, root int64) {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self = make(map[string]int64)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed: the operation failed mid-call
		}
		d := s.End - s.Start
		if s.Parent < 0 {
			root += d
		}
		self[s.Layer] += d - coveredBy(spans, children[i], s.Start, s.End)
	}
	return self, root
}

// coveredBy is the length of the union of the kids' intervals clipped to
// [lo, hi].
func coveredBy(spans []span, kids []int, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].Start, spans[k].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, v := range ivs {
		if curB < curA || v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}
