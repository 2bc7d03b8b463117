package topk

import (
	"context"
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// Gated telemetry instruments of the θ-approximate variant.
var (
	tTAApproxRuns  = telemetry.GetCounter("topk.ta_approx.runs")
	tTAApproxEarly = telemetry.GetCounter("topk.ta_approx.early_stops")
)

// ApproxCertificate is the quality certificate of a θ-approximate TA run, in
// the sense of Fagin–Lotem–Naor's approximation variant of the Threshold
// Algorithm: for every reported winner y and every element z NOT reported,
// the doubled median of y is at most (1+θ) times the doubled median of z.
// The certificate carries the two quantities the guarantee is derived from at
// the moment the run stopped, so clients (and tests) can re-verify it.
type ApproxCertificate struct {
	// Theta is the requested slack; the run is a (1+θ)-approximation.
	Theta float64 `json:"theta"`
	// Threshold2 is τ at stop: the needed-th smallest frontier position, a
	// lower bound on the doubled median of any element the run never
	// resolved. Zero when the run resolved every element (the threshold never
	// gated the answer and the result is exact).
	Threshold2 int64 `json:"threshold2"`
	// KthMedian2 is the doubled median of the worst reported winner.
	KthMedian2 int64 `json:"kth_median2"`
	// Ratio is the certified approximation factor actually achieved,
	// max(1, KthMedian2/Threshold2) ≤ 1+θ. Exact answers report 1.
	Ratio float64 `json:"ratio"`
	// EarlyStop reports whether the θ-relaxed test fired before the exact
	// threshold test would have: false means the answer is exact (the
	// approximation budget was never spent).
	EarlyStop bool `json:"early_stop"`
}

// ThresholdTopK is a TA-style baseline in the spirit of the Threshold
// Algorithm of Fagin, Lotem, and Naor, adapted to median-rank aggregation
// over partial rankings: lists are read round-robin under sorted access, and
// every newly discovered element is immediately resolved by random access to
// its position in every other list, so its exact lower median is known the
// moment it is first seen. The run stops once k resolved elements have
// medians strictly below the threshold — the needed-th smallest frontier
// position, a lower bound on the median of any still-unseen element.
//
// The answer is identical to MedRank's. The cost profile is the interesting
// part: TA trades MEDRANK's extra sorted accesses for m-1 random accesses
// per distinct element it touches, which is exactly the trade-off the FLN
// middleware cost model (AccessStats.MiddlewareCost) prices. MEDRANK is the
// paper's instance-optimal choice when random accesses are impossible or
// expensive; ThresholdTopK exists so experiments can report both regimes
// through the same unified access accounting.
func ThresholdTopK(rankings []*ranking.PartialRanking, k int) (*Result, error) {
	return ThresholdTopKContext(context.Background(), rankings, k)
}

// ThresholdTopKContext is ThresholdTopK under a caller context: telemetry
// labels attach to it and cancellation or deadline expiry aborts the run
// between accesses with ctx.Err().
func ThresholdTopKContext(ctx context.Context, rankings []*ranking.PartialRanking, k int) (*Result, error) {
	return ThresholdTopKApprox(ctx, rankings, k, 0)
}

// ThresholdTopKApprox is the θ-approximation variant of ThresholdTopKContext
// (FLN's approximate TA): the run may stop as soon as the k-th best resolved
// median is within a (1+θ) factor of the threshold, instead of strictly
// below it. The Result's ApproxCertificate proves the (1+θ) bound; with
// θ = 0 the relaxed test never fires and the run is the exact engine.
//
// The point of the variant is graceful degradation: under deadline pressure
// a (1+θ)-certified answer now beats an exact answer that never arrives.
func ThresholdTopKApprox(ctx context.Context, rankings []*ranking.PartialRanking, k int, theta float64) (*Result, error) {
	sources, acc, err := ListSources(rankings)
	if err != nil {
		return nil, err
	}
	return taOver(ctx, sources, k, theta, acc)
}

// ThresholdTopKOver is the TA-style baseline over sources that may fail.
// Sorted accesses proceed round-robin over the lists that are still alive;
// every newly discovered element is resolved by random access in every other
// alive list. Any non-context access error permanently kills the offending
// list: the algorithm drops it from the aggregation, recomputes every
// resolved median over the survivors (each resolved element's positions in
// all currently-alive lists are known, so the recomputation is exact), and
// keeps going. The answer is then the exact lower-median top-k over the
// surviving lists and Result.Degraded is non-nil.
//
// Unlike MedRankOver, a truncated sorted scan costs TA nothing but
// discovery: elements the scan never reveals are resolved by random access
// once every survivor is exhausted, because random access by identity still
// works on a source whose scan ended early.
//
// acc follows the MedRankOver convention.
func ThresholdTopKOver(ctx context.Context, sources []faults.Source, k int, acc *telemetry.AccessAccountant) (*Result, error) {
	return taOver(ctx, sources, k, 0, acc)
}

// taOver is the one TA. theta == 0 runs the exact strict stopping rule and
// nothing else; theta > 0 additionally stops early once the k-th best
// resolved median is ≤ (1+θ)·τ. The exact test is evaluated first each
// iteration, so a θ = 0 run takes exactly the exact engine's branch sequence.
func taOver(ctx context.Context, sources []faults.Source, k int, theta float64, acc *telemetry.AccessAccountant) (*Result, error) {
	if theta < 0 || math.IsNaN(theta) || math.IsInf(theta, 0) {
		return nil, fmt.Errorf("topk: theta=%v out of range [0, +inf)", theta)
	}
	sv, err := newSurvivors(sources, k, acc)
	if err != nil {
		return nil, err
	}
	t := &taRun{
		survivors: sv,
		theta:     theta,
		cert:      ApproxCertificate{Theta: theta, Ratio: 1},
		fr:        newFrontiers(sv.m, (sv.m+1)/2),
		rowOf:     make([]int, sv.n),
		rows:      make([]int64, 0, sv.n*sv.m),
		med:       make([]int64, sv.n),
		kSmall:    make(pairMaxHeap, 0, k),
		scratch:   make([]int64, 0, sv.m),
	}
	for i, s := range sources {
		t.fr.pos[i] = s.Peek2()
	}
	for e := range t.med {
		t.rowOf[e] = -1
		t.med[e] = math.MaxInt64
	}
	var attrs []func(*telemetry.Span)
	if theta > 0 {
		attrs = append(attrs, func(sp *telemetry.Span) { sp.SetAttr("theta_milli", int64(theta*1000)) })
	}
	if err := taEngine.drive(ctx, t.drive, attrs...); err != nil {
		return nil, err
	}

	winners, medians2 := selectTopK(t.med, k)
	res, err := sv.result(taEngine, winners, medians2, func(orig, w int) (int64, bool) {
		v := t.row(w)[orig]
		return v, v != math.MaxInt64
	})
	if err != nil {
		return nil, err
	}
	if t.cert.KthMedian2 == 0 && len(medians2) > 0 {
		// The run resolved everything (or stopped by exhaustion): the
		// certificate is exact, anchored on the reported worst winner.
		t.cert.KthMedian2 = medians2[len(medians2)-1]
	}
	res.Approx = &t.cert
	if theta > 0 {
		tTAApproxRuns.Inc()
		if t.cert.EarlyStop {
			tTAApproxEarly.Inc()
		}
	}
	return res, nil
}

// taRun is the state of one TA run. Resolved elements keep their full
// position rows in one flat arena, so a list death recomputes every resolved
// median over the surviving columns without touching a source.
type taRun struct {
	*survivors
	theta    float64
	cert     ApproxCertificate
	fr       frontiers   // per original list, dead and exhausted lists at MaxInt64; needed is the survivor median index
	rowOf    []int       // per element: its row in rows, -1 while unresolved
	rows     []int64     // m positions per resolved element, MaxInt64 = unknown
	med      []int64     // per element: lower median over the alive lists
	kSmall   pairMaxHeap // k smallest (median, element)
	resolved int
	rrNext   int
	scratch  []int64
}

func (t *taRun) row(e int) []int64 {
	r := t.rowOf[e] * t.m
	return t.rows[r : r+t.m]
}

func (t *taRun) drive(ctx context.Context) error {
	if t.k == 0 {
		return nil
	}
	done := ctx.Done()
	for t.resolved < t.n {
		if err := ctxErr(ctx, done); err != nil {
			return err
		}
		if t.resolved >= t.k && t.stop() {
			return nil
		}
		// Round-robin sorted access over the alive, non-exhausted lists.
		i := -1
		for tries := 0; tries < t.m; tries++ {
			c := t.rrNext
			t.rrNext = (t.rrNext + 1) % t.m
			if t.alive[c] && t.fr.pos[c] < math.MaxInt64 {
				i = c
				break
			}
		}
		if i < 0 {
			// Every survivor's scan has ended. Lists that merely truncated
			// still answer random accesses, so resolve the undiscovered rest
			// by identity.
			return t.resolveRest(ctx, done)
		}
		e, ok, err := t.sources[i].Next(ctx)
		if err != nil {
			t.fr.set(i, math.MaxInt64)
			if err := t.kill(i, err, t.recompute); err != nil {
				return err
			}
			continue
		}
		if !ok {
			t.fr.set(i, math.MaxInt64)
			continue
		}
		t.fr.set(i, t.sources[i].Peek2())
		if t.med[e.Elem] != math.MaxInt64 {
			continue // already resolved via random access
		}
		if err := t.resolve(ctx, e.Elem, i, e.Pos2); err != nil {
			return err
		}
	}
	return nil
}

// stop runs the stopping tests against τ, the needed-th smallest frontier: a
// lower bound on the doubled median of any element the run has not resolved
// (dead and exhausted lists sit at MaxInt64, so this is the needed-th
// smallest alive frontier). τ is cached until a frontier moves.
func (t *taRun) stop() bool {
	tau := t.fr.unseenBound()
	kth := t.kSmall[0].v
	// Threshold test: with k exact medians strictly below the best median any
	// unseen element could achieve, the answer is final (strictness sidesteps
	// ties, which break by element ID).
	if kth < tau {
		t.cert.Threshold2, t.cert.KthMedian2 = tau, kth
		return true
	}
	// θ-relaxed test: the k-th best resolved median is within a (1+θ) factor
	// of τ, so any element the run has not resolved can beat a reported
	// winner by at most that factor.
	if t.theta > 0 && tau < math.MaxInt64 && float64(kth) <= (1+t.theta)*float64(tau) {
		t.cert.Threshold2, t.cert.KthMedian2 = tau, kth
		t.cert.EarlyStop = true
		if tau > 0 && kth > tau {
			t.cert.Ratio = float64(kth) / float64(tau)
		}
		return true
	}
	return false
}

// resolve random-accesses elem's position in every alive list (except
// seedList when its position arrived by sorted access) and records the
// element's exact lower median over the survivors. A list dying
// mid-resolution is killed and the resolution continues over the rest.
func (t *taRun) resolve(ctx context.Context, elem, seedList int, seedPos2 int64) error {
	base := len(t.rows)
	t.rows = t.rows[:base+t.m]
	for j := base; j < len(t.rows); j++ {
		t.rows[j] = math.MaxInt64
	}
	if seedList >= 0 {
		t.rows[base+seedList] = seedPos2
	}
	for j := 0; j < t.m; j++ {
		if j == seedList || !t.alive[j] {
			continue
		}
		v, err := t.sources[j].Pos2(ctx, elem)
		if err != nil {
			t.fr.set(j, math.MaxInt64)
			if err := t.kill(j, err, t.recompute); err != nil {
				return err
			}
			continue
		}
		t.rows[base+j] = v
	}
	t.rowOf[elem] = base / t.m
	t.resolved++
	t.track(elem)
	return nil
}

// resolveRest resolves, by random access, every element no sorted scan
// revealed; done is ctx.Done(), read once by drive.
func (t *taRun) resolveRest(ctx context.Context, done <-chan struct{}) error {
	for e := 0; e < t.n && t.resolved < t.n; e++ {
		if err := ctxErr(ctx, done); err != nil {
			return err
		}
		if t.med[e] != math.MaxInt64 {
			continue
		}
		if err := t.resolve(ctx, e, -1, 0); err != nil {
			return err
		}
	}
	return nil
}

// track computes resolved element e's median over the alive lists and offers
// it to the heap of the k smallest.
func (t *taRun) track(e int) {
	vals := t.scratch[:0]
	for j, v := range t.row(e) {
		if t.alive[j] {
			vals = append(vals, v)
		}
	}
	t.scratch = vals
	t.med[e] = nthSmallest(vals, t.fr.needed)
	t.kSmall.offer(pair{t.med[e], e}, t.k)
}

// recompute follows a list death: it recomputes every resolved median over
// the survivors. The recomputation is exact: a resolved element's row holds
// its true position in every list that was alive at resolution time, a
// superset of the lists alive now.
func (t *taRun) recompute() {
	t.fr.setNeeded((len(t.aliveIdx) + 1) / 2)
	t.kSmall = t.kSmall[:0]
	for e, r := range t.rowOf {
		if r >= 0 {
			t.track(e)
		}
	}
}
