package topk

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// MedRank runs the streaming median-rank top-k aggregation over the inputs
// with the given probe policy. It returns the exact lower-median top-k list
// while probing only a prefix of each list — enough to certify the answer.
func MedRank(rankings []*ranking.PartialRanking, k int, policy Policy) (*Result, error) {
	return MedRankContext(context.Background(), rankings, k, policy)
}

// MedRankContext is MedRank under a caller context: the context's pprof
// labels and spans attach to the certification kernel (so a db.TopK span
// covers the engine it drove), and cancellation or deadline expiry aborts
// the run between probes with ctx.Err(). It is MedRankOver over list
// sources.
func MedRankContext(ctx context.Context, rankings []*ranking.PartialRanking, k int, policy Policy) (*Result, error) {
	sources, acc, err := ListSources(rankings)
	if err != nil {
		return nil, err
	}
	return MedRankOver(ctx, sources, k, policy, acc)
}

// MedRankOver runs MEDRANK over sources that may fail: sequential accesses
// may fail, stall, or end early, and whole lists may die mid-query. Transient
// failures should be absorbed below the engine (faults.WithRetry); any
// non-context error reaching the engine permanently kills that list. The run
// then degrades to the exact aggregation of the surviving lists and the
// Result carries a non-nil Degraded annotation. Context cancellation or
// deadline expiry aborts the whole run with ctx.Err().
//
// When acc is non-nil it must be the same accountant the sources charge to,
// so Stats and the Degraded waste accounting see every access; nil allocates
// a fresh one (then sources built elsewhere are invisible to Stats).
func MedRankOver(ctx context.Context, sources []faults.Source, k int, policy Policy, acc *telemetry.AccessAccountant) (*Result, error) {
	sv, err := newSurvivors(sources, k, acc)
	if err != nil {
		return nil, err
	}
	r := &medrankRun{survivors: sv, policy: policy}
	switch policy {
	case GlobalMerge, RoundRobin:
	case GlobalMergeBuckets, RoundRobinBuckets:
		r.granular = true
	default:
		return nil, fmt.Errorf("topk: unknown policy %d", policy)
	}
	r.rebuild()
	if err := medrankEngine.drive(ctx, r.drive); err != nil {
		return nil, err
	}
	winners, medians2 := selectTopK(r.core.exactMed, k)
	return sv.result(medrankEngine, winners, medians2, nil)
}

// medrankRun drives the certification core over the surviving lists. When a
// list dies it rebuilds a fresh core over the survivors and replays their
// logs into it (see survivors.replay).
type medrankRun struct {
	*survivors
	policy   Policy
	granular bool // *Buckets policies: one probe = one bucket
	core     *medrankCore
	rrNext   int
}

// rebuild constructs a fresh certification core over the alive lists.
func (r *medrankRun) rebuild() {
	m := len(r.aliveIdx)
	c := &medrankCore{
		sv: r.survivors,
		n:  r.n, m: m, k: r.k,
		needed:   (m + 1) / 2, // index of the lower median
		frontier: make([]int64, m),
		seen:     make([][]int64, r.n),
		exactMed: make([]int64, r.n),
		inPend:   make([]bool, r.n),
		cleared:  make([]bool, r.n),
		kSmall:   &int64MaxHeap{},
	}
	for e := range c.exactMed {
		c.exactMed[e] = math.MaxInt64
	}
	for li, orig := range r.aliveIdx {
		c.frontier[li] = r.sources[orig].Peek2()
	}
	r.core = c
	r.replay(func(_ int, e Entry) { c.add(e) })
	if r.rrNext >= m {
		r.rrNext = 0
	}
}

// pick returns the survivor slot to probe next, or -1 when every surviving
// list is exhausted.
func (r *medrankRun) pick() int {
	fr := r.core.frontier
	if r.policy == GlobalMerge || r.policy == GlobalMergeBuckets {
		best, bestPos := -1, int64(math.MaxInt64)
		for i, p := range fr {
			if p < bestPos {
				best, bestPos = i, p
			}
		}
		return best
	}
	for tries := 0; tries < len(fr); tries++ {
		i := r.rrNext
		r.rrNext = (r.rrNext + 1) % len(fr)
		if fr[i] < math.MaxInt64 {
			return i
		}
	}
	return -1
}

// drive loops probe-and-certify until the top k is certified over the
// surviving lists, every survivor is exhausted, or the context ends.
func (r *medrankRun) drive(ctx context.Context) error {
	for !r.core.certified() {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		li := r.pick()
		if li < 0 {
			r.core.finalize()
			return nil
		}
		if err := r.probe(ctx, li); err != nil {
			return err
		}
	}
	return nil
}

// probe performs one (possibly bucket-granular) sequential access on survivor
// slot li. An access error either aborts the run (context) or kills the list
// and rebuilds the certification core over the remaining survivors.
func (r *medrankRun) probe(ctx context.Context, li int) error {
	orig := r.aliveIdx[li]
	src := r.sources[orig]
	e, ok, err := src.Next(ctx)
	if err != nil {
		return r.kill(orig, err, r.rebuild)
	}
	if !ok {
		r.core.frontier[li] = math.MaxInt64
		return nil
	}
	r.acc.BucketIO(orig)
	r.record(li, orig, e)
	if !r.granular {
		return nil
	}
	// Bucket granularity: the probe returned the whole run of entries tied
	// at this position (one index-scan I/O).
	for src.Peek2() == e.Pos2 {
		next, ok, err := src.Next(ctx)
		if err != nil {
			return r.kill(orig, err, r.rebuild)
		}
		if !ok {
			break
		}
		r.record(li, orig, next)
	}
	return nil
}

// record logs one consumed entry and feeds it to the certification core.
func (r *medrankRun) record(li, orig int, e Entry) {
	r.learn(orig, e)
	r.core.frontier[li] = r.sources[orig].Peek2()
	r.core.add(e)
}

// medrankCore is the certification state of one MEDRANK run over a fixed set
// of surviving lists (slots). It sees lists only through frontier positions
// and the survivors' revealed-element bitmaps.
//
// An element's lower median is the needed-th smallest of its m positions.
// Once an element has been probed `needed` times and its needed-th smallest
// seen position is at most the frontier of every list where it is still
// unseen, that value is its exact median — unseen positions are at least
// their frontiers, so they cannot enter the needed smallest — and it never
// changes afterwards.
//
// Certification of the top k requires: at least k exact elements, and every
// other element's median lower bound strictly exceeding the k-th smallest
// exact median. Two monotonicity facts make this cheap to maintain:
//
//   - an element's median lower bound only grows (frontiers advance, and a
//     probed position is at least the frontier it replaces);
//   - the k-th smallest exact median only shrinks as elements become exact.
//
// Hence once an element's bound clears the bar it is out of the race for
// good ("cleared"), and each element is charged O(m log m) work a constant
// number of times plus one examination per failed certification.
type medrankCore struct {
	sv              *survivors
	n, m, k, needed int
	frontier        []int64   // per slot: doubled position of next unprobed entry
	seen            [][]int64 // per element: probed doubled positions
	exactMed        []int64   // per element: exact doubled median, MaxInt64 if unknown
	exactCount      int
	probedDistinct  int
	pending         []int         // probed, not yet exact or cleared
	inPend          []bool        // membership in pending
	cleared         []bool        // provably outside the top k
	kSmall          *int64MaxHeap // k smallest exact medians (max-heap)
}

// seenIn reports whether slot li has yielded element e.
func (c *medrankCore) seenIn(li, e int) bool { return c.sv.has(c.sv.aliveIdx[li], e) }

// promote records e's exact median.
func (c *medrankCore) promote(e int, med int64) {
	c.exactMed[e] = med
	c.exactCount++
	if c.k > 0 {
		heap.Push(c.kSmall, med)
		if c.kSmall.Len() > c.k {
			heap.Pop(c.kSmall)
		}
	}
}

// add registers one revealed entry, probed now or replayed after a list
// death under the frontiers of the moment.
func (c *medrankCore) add(e Entry) {
	if len(c.seen[e.Elem]) == 0 {
		c.probedDistinct++
	}
	c.seen[e.Elem] = append(c.seen[e.Elem], e.Pos2)
	if c.exactMed[e.Elem] != math.MaxInt64 || c.cleared[e.Elem] {
		return
	}
	if med, ok := c.tryExact(e.Elem); ok {
		c.promote(e.Elem, med)
		return
	}
	if !c.inPend[e.Elem] {
		c.pending = append(c.pending, e.Elem)
		c.inPend[e.Elem] = true
	}
}

func (c *medrankCore) certified() bool {
	if c.k == 0 {
		return true
	}
	if c.exactCount < c.k {
		return false
	}
	kth := c.kSmall.Peek()
	if c.probedDistinct < c.n && c.unseenLB() <= kth {
		return false
	}
	// Examine pending elements; compact out the ones that are promoted,
	// already exact, or cleared. Bail out at the first genuine blocker.
	keep := c.pending[:0]
	blocked := false
	for idx, e := range c.pending {
		if blocked {
			keep = append(keep, c.pending[idx:]...)
			break
		}
		if c.exactMed[e] != math.MaxInt64 || c.cleared[e] {
			c.inPend[e] = false
			continue
		}
		if c.medianLB(e) > kth {
			c.cleared[e] = true
			c.inPend[e] = false
			continue
		}
		if med, ok := c.tryExact(e); ok {
			c.promote(e, med)
			c.inPend[e] = false
			// Promotion can only shrink kth, so prior clearances stand.
			kth = c.kSmall.Peek()
			continue
		}
		// e genuinely blocks certification; keep it and everything after.
		keep = append(keep, e)
		blocked = true
	}
	c.pending = keep
	return !blocked
}

// finalize promotes every remaining element once all surviving lists are
// exhausted or truncated. Missing positions are treated as +infinity (an
// element absent from a truncated tail ranks after everything observed), so
// an element observed in at least `needed` lists has an exact lower median
// — on complete lists every element is — and one observed in fewer is
// promoted with a bottom-of-order sentinel so it can still fill out the
// top-k list deterministically (by element ID, behind every known median).
func (c *medrankCore) finalize() {
	for e := 0; e < c.n; e++ {
		if c.exactMed[e] != math.MaxInt64 {
			continue
		}
		if len(c.seen[e]) >= c.needed {
			c.promote(e, kthSmallest(c.seen[e], c.needed))
		} else {
			c.promote(e, math.MaxInt64-1)
		}
	}
	c.pending = c.pending[:0]
}

// tryExact reports the exact median of e if certifiable now.
func (c *medrankCore) tryExact(e int) (int64, bool) {
	s := c.seen[e]
	if len(s) < c.needed {
		return 0, false
	}
	med := kthSmallest(s, c.needed)
	if len(s) == c.m {
		return med, true
	}
	for i := range c.frontier {
		if c.frontier[i] < med && !c.seenIn(i, e) {
			return 0, false
		}
	}
	return med, true
}

// medianLB returns a lower bound on e's median: the needed-th smallest of
// its seen positions merged with the frontiers of its unseen lists.
func (c *medrankCore) medianLB(e int) int64 {
	s := c.seen[e]
	all := make([]int64, 0, c.m)
	all = append(all, s...)
	if len(s) < c.m {
		for i := range c.frontier {
			if !c.seenIn(i, e) {
				all = append(all, c.frontier[i])
			}
		}
	}
	return kthSmallest(all, c.needed)
}

// unseenLB returns the median lower bound shared by all never-probed
// elements: the needed-th smallest frontier.
func (c *medrankCore) unseenLB() int64 {
	return kthSmallest(c.frontier, c.needed)
}
