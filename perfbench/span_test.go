package main

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func ms2d(x float64) time.Duration { return time.Duration(x * float64(time.Millisecond)) }

func span(parent, trace int, layer string, start, end float64) Span {
	return Span{Parent: parent, Trace: trace, Layer: layer, Start: ms2d(start), End: ms2d(end)}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	spans := []Span{
		span(-1, 0, "cache", 0, 2),
		span(-1, 0, "cache", 1, 3), // overlaps the first: a second worker
		span(-1, 0, "cache", 5, 6),
		span(-1, 0, "cache", 5.5, 5.8), // inside the third
	}
	if got, want := covered(spans), ms2d(4); got != want {
		t.Fatalf("covered = %v, want %v", got, want)
	}
	if covered(nil) != 0 {
		t.Fatal("covered(nil) != 0")
	}
}

// One aggregate op: the http replay takes 10ms, the service replay 8ms, the
// aggregate replay 6ms, inside which two workers make distance calls (cache
// spans) that sometimes miss (metrics spans).
func aggregateOp() []Span {
	return []Span{
		span(-1, 0, "http", 0, 10),
		span(0, 0, "service", 11, 19),
		span(1, 0, "aggregate", 20, 26),
		span(2, 0, "cache", 21, 23),
		span(2, 0, "cache", 22, 24), // parallel worker: cache covers 21..24 = 3ms
		span(3, 0, "metrics", 21.5, 22.5),
		span(4, 0, "metrics", 22, 23), // metrics cover 21.5..23 = 1.5ms
	}
}

var aggChain = []string{"http", "service", "aggregate", "cache", "metrics"}

func TestLayerSelfTelescopes(t *testing.T) {
	self := layerSelf(aggregateOp(), aggChain)
	want := []float64{2, 2, 3, 1.5, 1.5} // http 10-8, service 8-6, aggregate 6-3, cache 3-1.5, metrics 1.5
	var sum time.Duration
	for i, w := range want {
		if self[i] != ms2d(w) {
			t.Errorf("self[%s] = %v, want %vms", aggChain[i], self[i], w)
		}
		sum += self[i]
	}
	if sum != ms2d(10) {
		t.Fatalf("self times sum to %v, want the top span's 10ms", sum)
	}
}

func TestSharesSumToOne(t *testing.T) {
	ops := []*op{{kind: "aggregate"}, {kind: "topk"}}
	spans := aggregateOp()
	next := len(spans)
	spans = append(spans,
		span(-1, 1, "http", 30, 34),
		span(next, 1, "service", 35, 38),
		span(next+1, 1, "topk", 39, 41),
	)
	ls := newLayerStats()
	if err := shares(ls, spans, ops, "http"); err != nil {
		t.Fatal(err)
	}
	if got := ls.vals["trace.share_sum"][0]; math.Abs(got-1) > shareTolerance {
		t.Fatalf("shares sum to %v", got)
	}
	// http self: 2ms (aggregate op) + 1ms (topk op) of 14ms in all.
	if got, want := ls.vals["http.self_share"][0], 3.0/14; math.Abs(got-want) > 1e-12 {
		t.Fatalf("http share %v, want %v", got, want)
	}
	if got, want := ls.vals["topk.share"][0], 2.0/14; math.Abs(got-want) > 1e-12 {
		t.Fatalf("topk share %v, want %v", got, want)
	}
	if got := ls.vals["http.topk_self_ms"][0]; got != 1 {
		t.Fatalf("http.topk_self_ms %v, want 1", got)
	}
}

func TestReplayOrder(t *testing.T) {
	chain := func(int) []string { return aggChain }
	if err := checkReplayOrder(aggregateOp(), chain); err != nil {
		t.Fatalf("valid replay rejected: %v", err)
	}
	cases := map[string]func([]Span) []Span{
		"overlaps": func(s []Span) []Span {
			s[1].Start = ms2d(9) // service replay starts before http ended
			return s
		},
		"want": func(s []Span) []Span {
			s[2].Parent = 0 // aggregate replayed right after http, skipping service
			return s
		},
		"never finished": func(s []Span) []Span {
			s[6].End = -1
			return s
		},
		"starts before trace": func(s []Span) []Span {
			return append(s, span(-1, 1, "http", 25, 30)) // next op while this one runs
		},
		"replayed after": func(s []Span) []Span {
			s = append(s, span(-1, 2, "http", 30, 31))
			return append(s, span(-1, 1, "http", 32, 33)) // trace 1 after trace 2
		},
	}
	for want, mutate := range cases {
		err := checkReplayOrder(mutate(aggregateOp()), chain)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v", want, err)
		}
	}
	// A breakdown replay of a layer's own calls (db's index scans) may
	// follow the layer's span.
	db := []Span{
		span(-1, 0, "db", 0, 5),
		span(0, 0, "db.index_scan", 6, 7),
		span(0, 0, "topk", 8, 10),
	}
	if err := checkReplayOrder(db, func(int) []string { return []string{"db", "topk"} }); err != nil {
		t.Fatalf("db replay rejected: %v", err)
	}
}

func TestRecorderTimesAndCountsAllocations(t *testing.T) {
	r := NewRecorder()
	var sink [][]byte
	id := r.Time(0, -1, "topk", "alloc", func() {
		for i := 0; i < 100; i++ {
			sink = append(sink, make([]byte, 1024))
		}
	})
	s := r.Spans()[id]
	if s.End < s.Start || s.Allocs < 100 {
		t.Fatalf("span %+v: want a finished span with at least 100 allocations", s)
	}
	_ = sink
}

func TestCycleDealsExactMix(t *testing.T) {
	c := newCycle(rand.New(rand.NewSource(1)), []string{"a", "a", "b"})
	counts := map[string]int{}
	for i := 0; i < 30; i++ {
		counts[c.next()]++
	}
	if counts["a"] != 20 || counts["b"] != 10 {
		t.Fatalf("counts %v, want a=20 b=10", counts)
	}
}
