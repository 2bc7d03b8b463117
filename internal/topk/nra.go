package topk

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

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

// nraCore is the interval-certification state shared by NRA and CA. Like
// medrankCore it sees lists only through frontier positions and the
// survivors' revealed-element bitmaps, so the driver can rebuild a fresh core
// over the survivors after a list death and replay the logs.
//
// Monotonicity makes clearing sound: a candidate's worst-case bound
// only shrinks as positions arrive, its best-case bound only grows (frontiers
// advance, and an observed position is at least the frontier it replaces), so
// the domination bar only shrinks. Once a candidate's best case clears the
// bar it can never re-enter the race.
//
// A candidate's worst case, worst2, is the certified upper bound on its
// doubled median: the needed-th smallest observed position, nraInf until
// `needed` positions are known (missing positions could be arbitrarily
// deep). It changes only when the candidate gains a position, so it is kept
// per element and updated then, instead of being re-selected for every live
// candidate on every check.
type nraCore struct {
	sv              *survivors
	n, m, k, needed int
	fr              frontiers // per slot: doubled position of next unprobed entry
	pos             []int64   // n×m arena: element e's known positions are pos[e*m:][:cnt[e]]
	cnt             []int32   // per element: number of known positions (> 0: probed)
	worst           []int64   // per element: worst2, kept current for live candidates
	probedDistinct  int
	minUnprobed     int         // smallest never-probed element ID
	cleared         []bool      // provably outside the top k
	live            []int       // probed, not cleared (compacted on checks)
	bufferPeak      int         // peak number of simultaneously live candidates
	bar             pairMaxHeap // the k smallest (worst2, id), rebuilt by each check
	scratch         []int64
}

// seen returns e's known positions: a multiset, which selection reorders in
// place.
func (c *nraCore) seen(e int) []int64 { return c.pos[e*c.m : e*c.m+int(c.cnt[e])] }

// knownIn reports whether slot li already holds element e's position.
func (c *nraCore) knownIn(li, e int) bool { return c.sv.has(c.sv.aliveIdx[li], e) }

// add registers a newly learned position, whether it arrived by sorted or by
// random access — once known, a position is a position, which is what lets
// CA feed its random-access lookups into the same state (and the driver
// replay them after a list death). The caller passes each (list, element)
// once: survivors.learn filters a sorted scan re-revealing a random-accessed
// entry.
func (c *nraCore) add(e int, pos2 int64) {
	c.pos[e*c.m+int(c.cnt[e])] = pos2
	c.cnt[e]++
	if c.cnt[e] == 1 {
		c.probedDistinct++
		for c.minUnprobed < c.n && c.cnt[c.minUnprobed] > 0 {
			c.minUnprobed++
		}
		if !c.cleared[e] {
			c.live = append(c.live, e)
			c.bufferPeak = max(c.bufferPeak, len(c.live))
		}
	}
	if !c.cleared[e] && int(c.cnt[e]) >= c.needed {
		c.worst[e] = nthSmallest(c.seen(e), c.needed)
	}
}

// best2 is the certified lower bound on e's doubled median: the needed-th
// smallest of its observed positions merged with the frontiers of the slots
// where it is unknown (an unseen position is at least that list's frontier).
func (c *nraCore) best2(e int) int64 {
	s := c.seen(e)
	if len(s) == c.m {
		return c.worst[e]
	}
	all := append(c.scratch[:0], s...)
	for li, f := range c.fr.pos {
		if !c.knownIn(li, e) {
			all = append(all, f)
		}
	}
	c.scratch = all
	return nthSmallest(all, c.needed)
}

// minIncompleteBest returns the live candidate with the lexicographically
// smallest (best2, id) among those missing at least one position — the most
// useful random-access target — or -1 when every live candidate is complete.
func (c *nraCore) minIncompleteBest() int {
	best := -1
	var bestV int64
	for _, e := range c.live {
		if c.cleared[e] || int(c.cnt[e]) == c.m {
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
	c.bar = c.bar[:0]
	for _, e := range c.live {
		if w := c.worst[e]; w != nraInf {
			c.bar.offer(pair{w, e}, c.k)
		}
	}
	if len(c.bar) < c.k {
		// Fewer than k closed worst-case bounds: no bar to dominate yet.
		return false, c.minIncompleteBest()
	}
	barV, barID := c.bar[0].v, c.bar[0].e

	// Never-probed elements share the bound (needed-th smallest frontier,
	// smallest unprobed ID); checked first because it is O(1) while no
	// frontier moves.
	done = true
	if c.probedDistinct < c.n && !lexLT(barV, barID, c.fr.unseenBound(), c.minUnprobed) {
		done = false
	}
	var blockV int64
	blocker = -1
	for _, e := range c.live {
		if !lexLT(barV, barID, c.worst[e], e) {
			continue // member of the current top-k set
		}
		bv := c.best2(e)
		if lexLT(barV, barID, bv, e) {
			c.cleared[e] = true // can never re-enter: best2 only grows, the bar only shrinks
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
		med := c.worst[e]
		if med == nraInf {
			med = nraInf - 1 // bottom-of-order sentinel, ties broken by ID
		}
		cands = append(cands, cand{e, med, c.best2(e)})
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(a.med2, b.med2); c != 0 {
			return c
		}
		if c := cmp.Compare(a.lo2, b.lo2); c != 0 {
			return c
		}
		return cmp.Compare(a.e, b.e)
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
		hi := c.worst[cd.e]
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
// Rebuilding from scratch after a list death also re-derives every
// clearance: a clearance proved against the old instance (all m lists) need
// not hold against the survivor instance, so none of them are carried over.
type caRun struct {
	*survivors
	ratio int // sorted rounds between random-access resolutions; 0 = never (NRA)

	core       *nraCore
	rrNext     int
	sinceRA    int // sorted rounds since the last random-access resolution
	bufferPeak int // max over replaced cores of the live-candidate peak
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
		needed:  (m + 1) / 2,
		fr:      newFrontiers(m, (m+1)/2),
		pos:     make([]int64, f.n*m),
		cnt:     make([]int32, f.n),
		worst:   make([]int64, f.n),
		cleared: make([]bool, f.n),
		bar:     make(pairMaxHeap, 0, f.k),
		scratch: make([]int64, 0, m),
	}
	for e := range c.worst {
		c.worst[e] = nraInf
	}
	for li, orig := range f.aliveIdx {
		c.fr.pos[li] = f.sources[orig].Peek2()
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
	done := ctx.Done()
	for {
		if err := ctxErr(ctx, done); err != nil {
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
		if f.core.fr.pos[li] == math.MaxInt64 {
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
			f.core.fr.set(li, math.MaxInt64)
			continue
		}
		f.acc.BucketIO(orig)
		progressed = true
		if f.learn(orig, e) {
			f.core.add(e.Elem, e.Pos2)
		}
		f.core.fr.set(li, f.sources[orig].Peek2())
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
