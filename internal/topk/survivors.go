package topk

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/faults"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// tListDeaths counts lists that died permanently mid-query (gated).
var tListDeaths = telemetry.GetCounter("topk.list_deaths")

// Degraded annotates a Result whose input lists partially died mid-query: the
// answer is the exact lower-median top-k over the surviving lists only, which
// is schedule-independent and hence deterministic for a fixed fault plan.
type Degraded struct {
	// Lost holds the original indices of the lists that died, ascending.
	Lost []int `json:"lost"`
	// Survivors is the number of lists the answer aggregates.
	Survivors int `json:"survivors"`
	// WastedSequential counts sequential accesses charged to lists that later
	// died — work the degraded answer could not use.
	WastedSequential int `json:"wasted_sequential"`
	// WastedRandom counts random accesses charged to lists that later died.
	WastedRandom int `json:"wasted_random"`
	// Retried is the total number of access attempts re-issued by retry
	// policies during the run.
	Retried int `json:"retried"`
	// MedianIntervals2 holds, per winner, a conservative interval [lo, hi]
	// (doubled positions) that provably contains the winner's fault-free
	// median — the median it would have had if no list had died. With
	// j = (m+1)/2 the original median index and u the number of dead lists
	// where the winner was never observed: the j-th smallest of the m true
	// positions is at least the (j-u)-th smallest of the m-u positions we can
	// lower-bound (observed values are exact, unobserved survivors sit at or
	// beyond their frontier), and at most the j-th smallest of the observed
	// values alone (hi is MaxInt64 when fewer than j were observed).
	MedianIntervals2 [][2]int64 `json:"median_intervals2"`
}

// engine names one algorithm's trace span, pprof kernel label, and gated run
// counters (random is nil for the engines that make no random access).
type engine struct {
	span, kernel         string
	runs, probes, random *telemetry.Counter
}

var (
	medrankEngine = engine{"topk.medrank", "medrank", tMedRankRuns, tMedRankProbes, nil}
	taEngine      = engine{"topk.ta", "ta", tTARuns, tTAProbes, tTARandom}
	nraEngine     = engine{"topk.nra", "nra", tNRARuns, tNRAProbes, nil}
	caEngine      = engine{"topk.ca", "ca", tCARuns, tCAProbes, tCARandom}
)

// ctxErr returns ctx.Err() once done, ctx's Done channel, is closed. It is
// the engines' one context-check policy. Each drive loop reads ctx.Done()
// once per run, since every call walks the context chain (telemetry's span
// and pprof-label layers, a server's request layers); a non-blocking receive
// on the channel then costs a few nanoseconds, so the loop checks before
// every access and a cancellation or deadline aborts a run between two
// accesses. Accesses that block (injected latency, retry backoff) watch ctx
// themselves.
func ctxErr(ctx context.Context, done <-chan struct{}) error {
	select {
	case <-done:
		return ctx.Err()
	default:
		return nil
	}
}

// survivors is the list bookkeeping every engine shares: the validated
// inputs, which lists are still alive and the slot numbering of the
// survivors, the log of every position learned from each list (replayed into
// a fresh certification core after a death, and read by the Degraded
// certificate), the classification of access errors, and Result assembly.
//
// Any non-context error reaching an engine permanently kills that list:
// transient failures are absorbed below the engine (faults.WithRetry). The
// answer is then the exact aggregation of the surviving lists.
type survivors struct {
	sources []faults.Source
	acc     *telemetry.AccessAccountant
	n, m, k int

	alive    []bool    // per original list
	aliveIdx []int     // survivor slot -> original list index
	lost     []int     // original indices of dead lists, in death order
	logs     [][]Entry // per original list: every position learned from it
	learned  []uint64  // m bitmaps of `words` words: list i has revealed element e
	words    int
}

// newSurvivors validates the sources and k. When acc is non-nil it must be
// the accountant the sources charge to, so Stats and the Degraded waste
// accounting see every access; nil allocates a fresh one (then sources built
// elsewhere are invisible to Stats).
func newSurvivors(sources []faults.Source, k int, acc *telemetry.AccessAccountant) (*survivors, error) {
	m := len(sources)
	if m == 0 {
		return nil, fmt.Errorf("topk: no input sources")
	}
	n := sources[0].N()
	for i, s := range sources {
		if s.N() != n {
			return nil, fmt.Errorf("topk: source %d has domain size %d, want %d", i, s.N(), n)
		}
	}
	if k < 0 || k > n {
		return nil, fmt.Errorf("topk: k=%d out of range [0,%d]", k, n)
	}
	if acc == nil {
		acc = telemetry.NewAccessAccountant(m)
	}
	s := &survivors{
		sources: sources, acc: acc, n: n, m: m, k: k,
		alive:    make([]bool, m),
		aliveIdx: make([]int, m),
		logs:     make([][]Entry, m),
		words:    (n + 63) / 64,
	}
	s.learned = make([]uint64, m*s.words)
	for i := range s.alive {
		s.alive[i] = true
		s.aliveIdx[i] = i
	}
	return s, nil
}

// has reports whether original list orig has revealed element e.
func (s *survivors) has(orig, e int) bool {
	return s.learned[orig*s.words+e>>6]&(1<<(uint(e)&63)) != 0
}

// learn logs e as revealed by original list orig, by sorted or random
// access alike — once known, a position is a position. It reports false,
// logging nothing, when the list had already revealed the element.
func (s *survivors) learn(orig int, e Entry) bool {
	w := &s.learned[orig*s.words+e.Elem>>6]
	bit := uint64(1) << (uint(e.Elem) & 63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	s.logs[orig] = append(s.logs[orig], e)
	return true
}

// replay feeds every logged position of every survivor, slot by slot, to a
// freshly built certification core. Replay is exact, not merely
// conservative: every unseen position of a survivor is at least its current
// frontier, so certifications made under the rebuilt frontiers hold.
func (s *survivors) replay(add func(li int, e Entry)) {
	for li, orig := range s.aliveIdx {
		for _, e := range s.logs[orig] {
			add(li, e)
		}
	}
}

// kill handles an access error on original list orig: a context error aborts
// the run and is returned as is; any other error kills the list and, unless
// no list survives it, calls rebuild (nil for none) to rebuild the engine's
// state over the survivors.
func (s *survivors) kill(orig int, err error, rebuild func()) error {
	if faults.IsContextErr(err) {
		return err
	}
	s.alive[orig] = false
	s.lost = append(s.lost, orig)
	tListDeaths.Inc()
	keep := s.aliveIdx[:0]
	for _, i := range s.aliveIdx {
		if s.alive[i] {
			keep = append(keep, i)
		}
	}
	s.aliveIdx = keep
	if len(keep) == 0 {
		return fmt.Errorf("topk: all %d input lists died mid-query (last: %w)", s.m, err)
	}
	if rebuild != nil {
		rebuild()
	}
	return nil
}

// drive runs an engine's loop under its span and pprof kernel label, so CPU
// profiles attribute its samples (under the caller's own labels) and the run
// is timed as a trace span.
func (eng engine) drive(ctx context.Context, loop func(context.Context) error, attrs ...func(*telemetry.Span)) error {
	var err error
	sctx, sp := telemetry.Start(ctx, eng.span)
	for _, a := range attrs {
		a(&sp)
	}
	telemetry.Do(sctx, "kernel", eng.kernel, func(ctx context.Context) {
		err = loop(ctx)
	})
	sp.End()
	return err
}

// result assembles the Result of a finished run and bumps the engine's run
// counters. pos reports the position of winner w learned from original list
// orig, for the Degraded certificate; nil reads it from the replay logs.
func (s *survivors) result(eng engine, winners []int, medians2 []int64, pos func(orig, w int) (int64, bool)) (*Result, error) {
	top, err := ranking.TopKList(s.n, s.k, winners)
	if err != nil {
		return nil, err
	}
	rep := s.acc.Report()
	stats := statsFromReport(rep)
	eng.runs.Inc()
	eng.probes.Add(int64(stats.Total))
	if eng.random != nil {
		eng.random.Add(int64(stats.Random))
	}
	return &Result{
		TopK:     top,
		Winners:  winners,
		Medians2: medians2,
		Stats:    stats,
		Degraded: s.degraded(rep, winners, pos),
	}, nil
}

// degraded builds the Degraded annotation, nil when no list died. A winner's
// observed positions include those learned from lists that later died: they
// are exact fault-free positions.
func (s *survivors) degraded(rep telemetry.AccessReport, winners []int, pos func(orig, w int) (int64, bool)) *Degraded {
	if len(s.lost) == 0 {
		return nil
	}
	d := &Degraded{
		Lost:             append([]int(nil), s.lost...),
		Survivors:        len(s.aliveIdx),
		Retried:          int(rep.Retried),
		MedianIntervals2: make([][2]int64, len(winners)),
	}
	slices.Sort(d.Lost)
	for _, li := range s.lost {
		if li < len(rep.PerList) {
			d.WastedSequential += int(rep.PerList[li])
		}
		if li < len(rep.RandomPerList) {
			d.WastedRandom += int(rep.RandomPerList[li])
		}
	}
	if pos == nil {
		pos = func(orig, w int) (int64, bool) {
			if !s.has(orig, w) {
				return 0, false
			}
			for _, e := range s.logs[orig] {
				if e.Elem == w {
					return e.Pos2, true
				}
			}
			return 0, false
		}
	}
	j := (s.m + 1) / 2
	known := make([]int64, 0, s.m)
	bounded := make([]int64, 0, s.m)
	for i, w := range winners {
		known, bounded = known[:0], bounded[:0]
		unknown := 0
		for orig := 0; orig < s.m; orig++ {
			if v, ok := pos(orig, w); ok {
				known = append(known, v)
			} else if s.alive[orig] {
				bounded = append(bounded, s.sources[orig].Peek2())
			} else {
				unknown++
			}
		}
		bounded = append(bounded, known...)
		lo := int64(0)
		if j-unknown >= 1 {
			lo = nthSmallest(bounded, j-unknown)
		}
		hi := int64(math.MaxInt64)
		if len(known) >= j {
			hi = nthSmallest(known, j)
		}
		d.MedianIntervals2[i] = [2]int64{lo, hi}
	}
	return d
}
