package topk

import (
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
		fr:       newFrontiers(m, (m+1)/2),
		pos:      make([]int64, r.n*m),
		cnt:      make([]int32, r.n),
		exactMed: make([]int64, r.n),
		inPend:   make([]bool, r.n),
		cleared:  make([]bool, r.n),
		kSmall:   make(pairMaxHeap, 0, r.k),
		scratch:  make([]int64, 0, m),
		changed:  true,
	}
	for e := range c.exactMed {
		c.exactMed[e] = math.MaxInt64
	}
	for li, orig := range r.aliveIdx {
		c.fr.pos[li] = r.sources[orig].Peek2()
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
	if r.policy == GlobalMerge || r.policy == GlobalMergeBuckets {
		return r.core.fr.argmin()
	}
	fr := r.core.fr.pos
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
	done := ctx.Done()
	for !r.core.certified() {
		if err := ctxErr(ctx, done); err != nil {
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
		r.core.setFrontier(li, math.MaxInt64)
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
	r.core.setFrontier(li, r.sources[orig].Peek2())
	if r.learn(orig, e) {
		r.core.add(e)
	}
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
// good ("cleared"), and each element is charged O(m) work a constant number
// of times plus one examination per failed certification.
//
// A failed test is not repeated until `changed` records one of the events
// that alone can certify (see the package doc): a frontier value changes, a
// median is promoted, or the last never-probed element is probed.
type medrankCore struct {
	sv              *survivors
	n, m, k, needed int
	fr              frontiers // per slot: doubled position of next unprobed entry
	pos             []int64   // n×m arena: element e's probed positions are pos[e*m:][:cnt[e]]
	cnt             []int32   // per element: number of probed positions
	exactMed        []int64   // per element: exact doubled median, MaxInt64 if unknown
	exactCount      int
	probedDistinct  int
	pending         []int       // probed, not yet exact or cleared
	inPend          []bool      // membership in pending
	cleared         []bool      // provably outside the top k
	kSmall          pairMaxHeap // k smallest (exact median, element)
	changed         bool        // certification must be re-evaluated
	scratch         []int64
}

// seen returns e's probed positions: a multiset, which selection reorders in
// place.
func (c *medrankCore) seen(e int) []int64 { return c.pos[e*c.m : e*c.m+int(c.cnt[e])] }

// seenIn reports whether slot li has yielded element e.
func (c *medrankCore) seenIn(li, e int) bool { return c.sv.has(c.sv.aliveIdx[li], e) }

// setFrontier moves slot li's frontier, flagging a re-certification when its
// value changes.
func (c *medrankCore) setFrontier(li int, v int64) {
	if c.fr.set(li, v) {
		c.changed = true
	}
}

// promote records e's exact median.
func (c *medrankCore) promote(e int, med int64) {
	c.exactMed[e] = med
	c.exactCount++
	c.changed = true
	c.kSmall.offer(pair{med, e}, c.k)
}

// observe stores one revealed position of element e.
func (c *medrankCore) observe(e int, pos2 int64) {
	if c.cnt[e] == 0 {
		c.probedDistinct++
		if c.probedDistinct == c.n {
			c.changed = true // the unseen bound no longer applies
		}
	}
	c.pos[e*c.m+int(c.cnt[e])] = pos2
	c.cnt[e]++
}

// add registers one revealed entry, probed now or replayed after a list
// death under the frontiers of the moment.
func (c *medrankCore) add(e Entry) {
	c.observe(e.Elem, e.Pos2)
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

// certified reports whether the top k is certified, re-evaluating only after
// an event that can certify it (see the type comment).
func (c *medrankCore) certified() bool {
	if c.k == 0 {
		return true
	}
	if !c.changed {
		return false // nothing that can certify happened since the last failed test
	}
	ok := c.evaluate()
	c.changed = ok // a failed test waits for the next event
	return ok
}

// evaluate runs the certification test.
func (c *medrankCore) evaluate() bool {
	if c.exactCount < c.k {
		return false
	}
	kth := c.kSmall[0].v
	if c.probedDistinct < c.n && c.fr.unseenBound() <= kth {
		return false
	}
	// Examine pending elements; compact out the ones that are promoted,
	// already exact, or cleared. Bail out at the first genuine blocker.
	keep := c.pending[:0]
	for idx, e := range c.pending {
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
			kth = c.kSmall[0].v
			continue
		}
		// e genuinely blocks certification; keep it and everything after,
		// moving the tail only when something before e was dropped.
		if len(keep) < idx {
			c.pending = append(keep, c.pending[idx:]...)
		}
		return false
	}
	c.pending = keep
	return true
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
		if s := c.seen(e); len(s) >= c.needed {
			c.promote(e, nthSmallest(s, c.needed))
		} else {
			c.promote(e, math.MaxInt64-1)
		}
	}
	c.pending = c.pending[:0]
}

// tryExact reports the exact median of e if certifiable now.
func (c *medrankCore) tryExact(e int) (int64, bool) {
	s := c.seen(e)
	if len(s) < c.needed {
		return 0, false
	}
	med := nthSmallest(s, c.needed)
	if len(s) == c.m {
		return med, true
	}
	for i, f := range c.fr.pos {
		if f < med && !c.seenIn(i, e) {
			return 0, false
		}
	}
	return med, true
}

// medianLB returns a lower bound on e's median: the needed-th smallest of
// its seen positions merged with the frontiers of its unseen lists.
func (c *medrankCore) medianLB(e int) int64 {
	s := c.seen(e)
	all := append(c.scratch[:0], s...)
	if len(s) < c.m {
		for i, f := range c.fr.pos {
			if !c.seenIn(i, e) {
				all = append(all, f)
			}
		}
	}
	c.scratch = all
	return nthSmallest(all, c.needed)
}
