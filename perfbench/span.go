package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer's public functions.
// Spans of one replayed op share a trace ID. A span's parent is either the
// span that encloses it in time (a call made from inside another, such as a
// distance call inside an aggregate kernel) or the span of the layer above
// whose replay this one follows (the same op replayed one layer lower).
type Span struct {
	Parent int // index of the parent span, -1 for the op's top span
	Trace  int
	Layer  string
	Name   string
	Start  time.Duration // offset from the recorder's epoch
	End    time.Duration
	Allocs uint64 // heap objects allocated during the span, when measured
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: the parallel kernels of the aggregate layer open spans from
// several worker goroutines at once.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Begin opens a span and returns its index, which identifies it.
func (r *Recorder) Begin(trace, parent int, layer, name string) int {
	start := time.Since(r.epoch)
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{Parent: parent, Trace: trace, Layer: layer, Name: name, Start: start, End: -1})
	r.mu.Unlock()
	return id
}

// Finish closes a span.
func (r *Recorder) Finish(id int) {
	end := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// Time runs f inside a span and records the heap objects it allocated. The
// allocation count comes from a runtime.MemStats delta around the call, so
// it includes anything other goroutines allocated meanwhile; the replays
// that use it run serially. The heap is collected first, so the garbage of
// one replay is not collected on the next one's time.
func (r *Recorder) Time(trace, parent int, layer, name string, f func()) int {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	id := r.Begin(trace, parent, layer, name)
	f()
	r.Finish(id)
	runtime.ReadMemStats(&after)
	r.mu.Lock()
	r.spans[id].Allocs = after.Mallocs - before.Mallocs
	r.mu.Unlock()
	return id
}

// Get returns one recorded span.
func (r *Recorder) Get(id int) Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id]
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// covered is the length of the union of the spans' intervals: the wall time
// during which at least one of them was open.
func covered(spans []Span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, len(spans))
	for i, s := range spans {
		iv[i] = [2]time.Duration{s.Start, s.End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// layerSelf splits one op's time over a chain of layers, top first. A
// layer's measure is the wall time its spans in the op cover; its self time
// is its measure minus the measure of the next layer down, and the bottom
// layer's self time is its whole measure. The self times therefore sum to
// the top layer's measure. Layers absent from the op measure zero.
func layerSelf(spans []Span, chain []string) []time.Duration {
	measure := make([]time.Duration, len(chain))
	for i, layer := range chain {
		var own []Span
		for _, s := range spans {
			if s.Layer == layer {
				own = append(own, s)
			}
		}
		measure[i] = covered(own)
	}
	self := make([]time.Duration, len(chain))
	for i := range chain {
		self[i] = measure[i]
		if i+1 < len(chain) {
			self[i] -= measure[i+1]
		}
	}
	return self
}

// checkReplayOrder verifies that every op was replayed serially and layer by
// layer: traces appear in increasing order without overlapping in time, and
// every span either lies inside its parent (a call made from within the
// parent's replay) or starts after its parent ended and belongs to the next
// layer down the op's chain (the same op replayed one layer lower) or to no
// layer of the chain (a breakdown replay of the parent layer's own calls,
// such as db's index scans). It returns the first violation found.
func checkReplayOrder(spans []Span, chainOf func(trace int) []string) error {
	lastTrace, prevEnd := -1, time.Duration(-1)
	for _, s := range spans {
		if s.End < 0 {
			return fmt.Errorf("trace %d: span %s/%s never finished", s.Trace, s.Layer, s.Name)
		}
		if s.Trace != lastTrace {
			if s.Trace < lastTrace {
				return fmt.Errorf("trace %d replayed after trace %d", s.Trace, lastTrace)
			}
			if s.Start < prevEnd {
				return fmt.Errorf("trace %d starts before trace %d ended", s.Trace, lastTrace)
			}
			lastTrace = s.Trace
		}
		if s.End > prevEnd {
			prevEnd = s.End
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		switch {
		case p.Trace != s.Trace:
			return fmt.Errorf("trace %d: span %s/%s has a parent in trace %d", s.Trace, s.Layer, s.Name, p.Trace)
		case p.Start <= s.Start && s.End <= p.End:
			// nested call
		case s.Start >= p.End:
			chain := chainOf(s.Trace)
			if next := nextLayer(chain, p.Layer); s.Layer != next && inChain(chain, s.Layer) {
				return fmt.Errorf("trace %d: %s replayed after %s, want %q next", s.Trace, s.Layer, p.Layer, next)
			}
		default:
			return fmt.Errorf("trace %d: %s replay overlaps the %s replay it follows", s.Trace, s.Layer, p.Layer)
		}
	}
	return nil
}

func inChain(chain []string, layer string) bool {
	for _, l := range chain {
		if l == layer {
			return true
		}
	}
	return false
}

// nextLayer returns the layer below layer in chain, or "" at the bottom.
func nextLayer(chain []string, layer string) string {
	for i, l := range chain {
		if l == layer && i+1 < len(chain) {
			return chain[i+1]
		}
	}
	return ""
}
