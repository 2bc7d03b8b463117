package topk

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/faults"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// This file implements the remaining two corners of the Fagin–Lotem–Naor
// middleware design space over median-rank aggregation:
//
//   - NRA ("no random access"): per-element [best, worst] median intervals
//     maintained from sorted access only. An element's worst case is the
//     needed-th smallest of its observed positions (infinite until `needed`
//     positions are known); its best case merges the observed positions with
//     the frontiers of the lists where it is still unseen. The run stops once
//     k intervals dominate every other element's interval, so the certified
//     answer SET equals the exact engines' even though individual medians may
//     remain intervals.
//   - CA ("combined algorithm"): the same interval accumulation, plus a
//     random-access resolution of the most blocking candidate once every
//     ~cR/cS sorted rounds, so expensive random accesses are paid only when
//     they amortize against the sorted work they save.
//
// Both engines share one certification core (nraCore) and one driver
// (caRun); the in-memory entry points below run that driver over list
// sources, so there is exactly one code path to trust.

// nraInf is the sentinel for an unknown worst-case bound: strictly larger
// than any real doubled position and than the bottom-of-order sentinel
// (math.MaxInt64 - 1) used for under-observed elements on degraded runs.
const nraInf = int64(math.MaxInt64)

// lexLT orders (value, element) pairs lexicographically — the tie-break every
// engine in this package uses. Strict interval domination under this order is
// what makes NRA's certified set identical to the exact engines': if
// (worst(w), w) < (best(z), z) then (median(w), w) < (median(z), z), because
// median(w) <= worst(w) and best(z) <= median(z), and at equal bounds the
// element IDs decide exactly as they do in the exact answer.
func lexLT(v1 int64, e1 int, v2 int64, e2 int) bool {
	return v1 < v2 || (v1 == v2 && e1 < e2)
}

// pair is an (value, element) pair ordered by lexLT.
type pair struct {
	v int64
	e int
}

// pairMaxHeap is a max-heap of pairs under lexLT; the root is the largest
// tracked pair. It tracks the k lexicographically smallest worst-case bounds,
// whose root is the domination bar.
type pairMaxHeap []pair

func (h pairMaxHeap) Len() int            { return len(h) }
func (h pairMaxHeap) Less(i, j int) bool  { return lexLT(h[j].v, h[j].e, h[i].v, h[i].e) }
func (h pairMaxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairMaxHeap) Push(x interface{}) { *h = append(*h, x.(pair)) }
func (h *pairMaxHeap) Pop() interface{} {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// nraCore is the interval-certification state shared by NRA and CA. Like
// medrankCore it sees lists only through frontier positions and the
// survivors' revealed-element bitmaps, so the driver can rebuild a fresh core
// over the survivors after a list death and replay the logs.
//
// Monotonicity makes bounded buffers sound: a candidate's worst-case bound
// only shrinks as positions arrive, its best-case bound only grows (frontiers
// advance, and an observed position is at least the frontier it replaces), so
// the domination bar only shrinks. Once a candidate's best case clears the
// bar it can never re-enter the race and its position buffer is freed.
type nraCore struct {
	sv              *survivors
	n, m, k, needed int
	frontier        []int64   // per slot: doubled position of next unprobed entry
	seen            [][]int64 // per element: known doubled positions (nil once cleared)
	probed          []bool    // per element: ever had a position recorded
	probedDistinct  int
	minUnprobed     int    // smallest never-probed element ID
	cleared         []bool // provably outside the top k
	live            []int  // probed, not cleared (compacted on checks)
	bufferPeak      int    // peak number of simultaneously held candidate buffers
}

// knownIn reports whether slot li already holds element e's position.
func (c *nraCore) knownIn(li, e int) bool { return c.sv.has(c.sv.aliveIdx[li], e) }

// add registers a newly learned position, whether it arrived by sorted or by
// random access — once known, a position is a position, which is what lets
// CA feed its random-access lookups into the same state (and the driver
// replay them after a list death). The caller passes each (list, element)
// once: survivors.learn filters a sorted scan re-revealing a random-accessed
// entry.
func (c *nraCore) add(e int, pos2 int64) {
	if !c.probed[e] {
		c.probed[e] = true
		c.probedDistinct++
		for c.minUnprobed < c.n && c.probed[c.minUnprobed] {
			c.minUnprobed++
		}
		if !c.cleared[e] {
			c.live = append(c.live, e)
			if len(c.live) > c.bufferPeak {
				c.bufferPeak = len(c.live)
			}
		}
	}
	if c.cleared[e] {
		return
	}
	c.seen[e] = append(c.seen[e], pos2)
}

// worst2 is the certified upper bound on e's doubled median: the needed-th
// smallest observed position, nraInf until `needed` positions are known
// (missing positions could be arbitrarily deep).
func (c *nraCore) worst2(e int) int64 {
	if len(c.seen[e]) < c.needed {
		return nraInf
	}
	return kthSmallest(c.seen[e], c.needed)
}

// best2 is the certified lower bound on e's doubled median: the needed-th
// smallest of its observed positions merged with the frontiers of the slots
// where it is unknown (an unseen position is at least that list's frontier).
func (c *nraCore) best2(e int) int64 {
	s := c.seen[e]
	if len(s) == c.m {
		return kthSmallest(s, c.needed)
	}
	all := make([]int64, 0, c.m)
	all = append(all, s...)
	for li := range c.frontier {
		if !c.knownIn(li, e) {
			all = append(all, c.frontier[li])
		}
	}
	return kthSmallest(all, c.needed)
}

// clear drops e from the race for good and frees its position buffer. Sound
// by monotonicity (see the type comment); the survivor logs retain
// the raw entries for replay after a list death, when the instance — and
// hence every clearance — is recomputed from scratch.
func (c *nraCore) clear(e int) {
	c.cleared[e] = true
	c.seen[e] = nil
}

// minIncompleteBest returns the live candidate with the lexicographically
// smallest (best2, id) among those missing at least one position — the most
// useful random-access target — or -1 when every live candidate is complete.
func (c *nraCore) minIncompleteBest() int {
	best := -1
	var bestV int64
	for _, e := range c.live {
		if c.cleared[e] || len(c.seen[e]) == c.m {
			continue
		}
		if v := c.best2(e); best == -1 || lexLT(v, e, bestV, best) {
			best, bestV = e, v
		}
	}
	return best
}

// check runs the round-granular certification test: done reports whether k
// intervals strictly dominate every other element (probed or not), and
// blocker names the most blocking resolvable candidate (-1 when only
// never-probed elements block, which no random access can help — only deeper
// sorted scanning raises their shared frontier bound).
func (c *nraCore) check() (done bool, blocker int) {
	if c.k == 0 {
		return true, -1
	}
	// Compact out candidates cleared on earlier checks.
	keep := c.live[:0]
	for _, e := range c.live {
		if !c.cleared[e] {
			keep = append(keep, e)
		}
	}
	c.live = keep

	// The domination bar: the k-th lexicographically smallest (worst2, id).
	var h pairMaxHeap
	for _, e := range c.live {
		w := c.worst2(e)
		if w == nraInf {
			continue
		}
		if h.Len() < c.k {
			heap.Push(&h, pair{w, e})
		} else if lexLT(w, e, h[0].v, h[0].e) {
			h[0] = pair{w, e}
			heap.Fix(&h, 0)
		}
	}
	if h.Len() < c.k {
		// Fewer than k closed worst-case bounds: no bar to dominate yet.
		return false, c.minIncompleteBest()
	}
	barV, barID := h[0].v, h[0].e

	// Never-probed elements share the bound (needed-th smallest frontier,
	// smallest unprobed ID); checked first because it is O(m).
	done = true
	if c.probedDistinct < c.n {
		u := kthSmallest(c.frontier, c.needed)
		if !lexLT(barV, barID, u, c.minUnprobed) {
			done = false
		}
	}
	var blockV int64
	blocker = -1
	for _, e := range c.live {
		w := c.worst2(e)
		if !lexLT(barV, barID, w, e) {
			continue // member of the current top-k set
		}
		bv := c.best2(e)
		if lexLT(barV, barID, bv, e) {
			c.clear(e) // can never re-enter: best2 only grows, the bar only shrinks
			continue
		}
		done = false
		if blocker == -1 || lexLT(bv, e, blockV, blocker) {
			blocker, blockV = e, bv
		}
	}
	return done, blocker
}

// finalTopK extracts the answer: the k lexicographically smallest
// (median-bound, id) pairs over every non-cleared element. At a certified
// stop this is exactly the dominating set (everything else was cleared); at
// exhaustion or truncation it matches MedRankOver's degraded convention —
// elements observed in at least `needed` lists carry their exact survivor
// median, under-observed elements carry the bottom-of-order sentinel and fill
// the list by ID.
func (c *nraCore) finalTopK() (winners []int, medians2 []int64, intervals [][2]int64) {
	type cand struct {
		e         int
		med2, lo2 int64
	}
	cands := make([]cand, 0, len(c.live)+c.n-c.probedDistinct)
	for e := 0; e < c.n; e++ {
		if c.cleared[e] {
			continue
		}
		med := c.worst2(e)
		if med == nraInf {
			med = nraInf - 1 // bottom-of-order sentinel, ties broken by ID
		}
		cands = append(cands, cand{e, med, c.best2(e)})
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.med2 != b.med2 {
			return a.med2 < b.med2
		}
		if a.lo2 != b.lo2 {
			return a.lo2 < b.lo2
		}
		return a.e < b.e
	})
	if len(cands) > c.k {
		cands = cands[:c.k]
	}
	winners = make([]int, 0, len(cands))
	medians2 = make([]int64, 0, len(cands))
	intervals = make([][2]int64, 0, len(cands))
	for _, cd := range cands {
		winners = append(winners, cd.e)
		medians2 = append(medians2, cd.med2)
		hi := c.worst2(cd.e)
		lo := cd.lo2
		if lo > hi {
			lo = hi
		}
		intervals = append(intervals, [2]int64{lo, hi})
	}
	return winners, medians2, intervals
}

// NRA runs the no-random-access engine of Fagin, Lotem, and Naor over the
// inputs: median-rank top-k from sorted access only, certified by interval
// domination. The winner SET equals MedRank's and ThresholdTopK's exactly
// (including ID tie-breaks); individual winners may carry open median
// intervals, reported in Result.Intervals2 with Medians2 holding the
// certified upper bounds. AccessStats.Random is always 0.
func NRA(rankings []*ranking.PartialRanking, k int) (*Result, error) {
	return NRAContext(context.Background(), rankings, k)
}

// NRAContext is NRA under a caller context; cancellation or deadline expiry
// aborts the run between accesses with ctx.Err().
func NRAContext(ctx context.Context, rankings []*ranking.PartialRanking, k int) (*Result, error) {
	return CAContext(ctx, rankings, k, 0)
}

// CA runs the combined algorithm of Fagin, Lotem, and Naor at the given
// random:sequential cost ratio: NRA-style interval accumulation with a
// random-access resolution of the most blocking candidate scheduled once
// every ~ratio sorted rounds, so the extra cR spend stays proportional to the
// cS spend it replaces. ratio 0 is the NRA regime (random access unavailable;
// the run makes none); ratio 1 resolves every round, approaching TA's
// behavior at TA's prices. The winner set equals the exact engines'.
func CA(rankings []*ranking.PartialRanking, k, ratio int) (*Result, error) {
	return CAContext(context.Background(), rankings, k, ratio)
}

// CAContext is CA under a caller context. It is CAOver over list sources.
func CAContext(ctx context.Context, rankings []*ranking.PartialRanking, k, ratio int) (*Result, error) {
	sources, acc, err := ListSources(rankings)
	if err != nil {
		return nil, err
	}
	return caOver(ctx, sources, k, ratio, acc)
}

// NRAOver runs the no-random-access engine over sources that may fail: the
// fault-tolerant contract of MedRankOver (transients absorbed below by
// faults.WithRetry, any error reaching the engine permanently kills that
// list, the run degrades to the exact answer over the survivors) with NRA's
// access pattern (sorted access only — the source stack's Pos2 is never
// called). acc follows the MedRankOver convention.
func NRAOver(ctx context.Context, sources []faults.Source, k int, acc *telemetry.AccessAccountant) (*Result, error) {
	return caOver(ctx, sources, k, 0, acc)
}

// CAOver runs the combined algorithm over sources that may fail, at the
// given random:sequential cost ratio (see CA). Random accesses that fail
// kill their list exactly like sequential ones.
func CAOver(ctx context.Context, sources []faults.Source, k, ratio int, acc *telemetry.AccessAccountant) (*Result, error) {
	return caOver(ctx, sources, k, ratio, acc)
}

// caOver is the single implementation behind NRA/CA/NRAOver/CAOver.
func caOver(ctx context.Context, sources []faults.Source, k, ratio int, acc *telemetry.AccessAccountant) (*Result, error) {
	if ratio < 0 {
		return nil, fmt.Errorf("topk: negative cost ratio %d", ratio)
	}
	sv, err := newSurvivors(sources, k, acc)
	if err != nil {
		return nil, err
	}
	f := &caRun{survivors: sv, ratio: ratio}
	f.rebuild()
	eng := nraEngine
	if ratio > 0 {
		eng = caEngine
	}
	if err := eng.drive(ctx, f.drive); err != nil {
		return nil, err
	}
	winners, medians2, intervals := f.core.finalTopK()
	res, err := sv.result(eng, winners, medians2, nil)
	if err != nil {
		return nil, err
	}
	res.Intervals2 = intervals
	res.BufferPeak = max(f.bufferPeak, f.core.bufferPeak)
	return res, nil
}

// caRun drives the interval-certification core for both NRA (ratio 0:
// sorted access only) and CA (ratio > 0: a random-access resolution every
// ~ratio sorted rounds). Random-access lookups are logged alongside sorted
// entries, since they are real knowledge the rebuilt core must not lose.
// Rebuilding from scratch after a list death also re-derives every buffer
// clearance: a clearance proved against the old instance (all m lists) need
// not hold against the survivor instance, so none of them are carried over.
type caRun struct {
	*survivors
	ratio int // sorted rounds between random-access resolutions; 0 = never (NRA)

	core       *nraCore
	rrNext     int
	sinceRA    int // sorted rounds since the last random-access resolution
	bufferPeak int // max over replaced cores of the candidate-buffer peak
}

// rebuild constructs a fresh certification core over the currently alive
// lists and replays every survivor's log into it.
func (f *caRun) rebuild() {
	if f.core != nil {
		f.bufferPeak = max(f.bufferPeak, f.core.bufferPeak)
	}
	m := len(f.aliveIdx)
	c := &nraCore{
		sv: f.survivors,
		n:  f.n, m: m, k: f.k,
		needed:   (m + 1) / 2,
		frontier: make([]int64, m),
		seen:     make([][]int64, f.n),
		probed:   make([]bool, f.n),
		cleared:  make([]bool, f.n),
	}
	for li, orig := range f.aliveIdx {
		c.frontier[li] = f.sources[orig].Peek2()
	}
	f.replay(func(_ int, e Entry) { c.add(e.Elem, e.Pos2) })
	f.core = c
	if f.rrNext >= m {
		f.rrNext = 0
	}
	f.sinceRA = 0
}

// drive alternates certification checks with work: a random-access
// resolution when one is due and useful, otherwise one sorted round over the
// survivors. The check runs at round granularity (the textbook NRA schedule)
// rather than per probe: a per-probe check would cost O(candidates·m) per
// entry consumed.
func (f *caRun) drive(ctx context.Context) error {
	for {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		done, blocker := f.core.check()
		if done {
			return nil
		}
		if f.ratio > 0 && blocker >= 0 && f.sinceRA >= f.ratio {
			if err := f.resolve(ctx, blocker); err != nil {
				return err
			}
			f.sinceRA = 0
			continue
		}
		progressed, err := f.round(ctx)
		if err != nil {
			return err
		}
		if !progressed {
			// Every survivor exhausted or truncated without a certificate:
			// finalTopK promotes by the missing-positions-are-infinite
			// convention, matching MedRankOver's degraded semantics. (With
			// complete lists this is unreachable — full knowledge certifies.)
			return nil
		}
		f.sinceRA++
	}
}

// round performs one sorted access on each live survivor list in round-robin
// order. A death mid-round aborts the round (the rebuilt core must be
// re-checked before more work is scheduled against it).
func (f *caRun) round(ctx context.Context) (bool, error) {
	progressed := false
	for t, m := 0, len(f.aliveIdx); t < m; t++ {
		if f.rrNext >= len(f.aliveIdx) {
			f.rrNext = 0
		}
		li := f.rrNext
		f.rrNext = (f.rrNext + 1) % len(f.aliveIdx)
		if f.core.frontier[li] == math.MaxInt64 {
			continue
		}
		orig := f.aliveIdx[li]
		e, ok, err := f.sources[orig].Next(ctx)
		if err != nil {
			if err := f.kill(orig, err, f.rebuild); err != nil {
				return false, err
			}
			return true, nil
		}
		if !ok {
			f.core.frontier[li] = math.MaxInt64
			continue
		}
		f.acc.BucketIO(orig)
		progressed = true
		if f.learn(orig, e) {
			f.core.add(e.Elem, e.Pos2)
		}
		f.core.frontier[li] = f.sources[orig].Peek2()
	}
	return progressed, nil
}

// resolve closes the blocking candidate's interval: one random access per
// surviving list where its position is still unknown.
func (f *caRun) resolve(ctx context.Context, e int) error {
	for li := 0; li < len(f.aliveIdx); li++ {
		if f.core.knownIn(li, e) {
			continue
		}
		orig := f.aliveIdx[li]
		v, err := f.sources[orig].Pos2(ctx, e)
		if err != nil {
			// A death renumbers the survivor slots; the caller re-checks.
			return f.kill(orig, err, f.rebuild)
		}
		f.learn(orig, Entry{Elem: e, Pos2: v})
		f.core.add(e, v)
	}
	return nil
}
