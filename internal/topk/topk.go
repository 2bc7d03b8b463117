// Package topk implements the database-friendly top-k aggregation engines of
// Section 6 of the paper and of Fagin, Lotem, and Naor's middleware family:
// MEDRANK (Fagin, Kumar, and Sivakumar, SIGMOD 2003) generalized to partial
// rankings, the Threshold Algorithm (TA) with its θ-approximate variant, and
// the no-random-access (NRA) and combined (CA) algorithms, all computing the
// lower-median top-k with the paper's tie semantics.
//
// Every engine is written once, over faults.Source: a list that yields
// entries in non-decreasing position order (a database index scan: one probe
// reveals the next element and its bucket position) and answers random
// accesses by element identity. In-memory rankings enter through
// NewListSource or ListSources; fallible pipelines wrap those sources with
// the injectors and retriers of internal/faults. The engines read as few
// entries as they can while still certifying the answer — "as few elements
// of each partial ranking as are necessary to determine the winner(s)" —
// and every access is counted, so experiments can compare the access cost
// against a full scan and against a per-instance certificate lower bound.
//
// The engines share one survivor layer (survivors.go): input validation,
// list deaths and the slot numbering of the surviving lists, the replay logs
// a certification core is rebuilt from after a death, the Degraded
// certificate, and Result assembly. Run dispatches a Spec to the engines;
// ParseAlgo is the one place an engine name is parsed.
//
// The stopping tests are re-evaluated only when an input to them changed,
// and the skip is exact. MEDRANK's certification can turn true only after a
// frontier value changes, a median is promoted, or the last never-probed
// element is probed. A probe at an unchanged frontier reveals its element
// at exactly that frontier: the element's seen positions and unseen
// frontiers form the same multiset as before, so no median lower bound
// moves, and the probe can only add a blocker or promote. The needed-th
// smallest frontier (MEDRANK's unseen bound, TA's τ, NRA/CA's u) is cached
// until a frontier value changes; a list death rebuilds every cache. The
// order statistics select in place over per-run scratch (select.go), so a
// run allocates nothing per access.
package topk

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/faults"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// Gated telemetry instruments of the top-k engines. Access accounting itself
// is always on (it is the experimental result); these counters only feed the
// process-wide registry snapshot.
var (
	tMedRankRuns   = telemetry.GetCounter("topk.medrank.runs")
	tMedRankProbes = telemetry.GetCounter("topk.medrank.probes")
	tTARuns        = telemetry.GetCounter("topk.ta.runs")
	tTAProbes      = telemetry.GetCounter("topk.ta.probes")
	tTARandom      = telemetry.GetCounter("topk.ta.random")
	tNRARuns       = telemetry.GetCounter("topk.nra.runs")
	tNRAProbes     = telemetry.GetCounter("topk.nra.probes")
	tCARuns        = telemetry.GetCounter("topk.ca.runs")
	tCAProbes      = telemetry.GetCounter("topk.ca.probes")
	tCARandom      = telemetry.GetCounter("topk.ca.random")
)

// Entry is one probed item of a list: an element and its (doubled) bucket
// position in that list. It is the access layer's wire type, aliased so the
// in-memory list sources here and the fallible sources of internal/faults
// share one value type.
type Entry = faults.Entry

// AccessStats records the access cost of a run under the middleware cost
// model of Fagin, Lotem, and Naor: sequential accesses (sorted scans),
// bucket-granular I/Os, and random accesses (element lookups by identity).
// It is the snapshot form of the run's telemetry.AccessAccountant, the one
// accounting type every engine — MEDRANK, the TA-style baseline, and the
// database query layer — reports through.
type AccessStats struct {
	// PerList is the number of entries probed from each input list.
	PerList []int
	// Total is the sum of PerList.
	Total int
	// MaxDepth is the deepest probe into any single list.
	MaxDepth int
	// BucketProbes counts bucket-granular I/Os per list; it equals PerList
	// under element-granular policies (each element costs one probe) and is
	// smaller under the *Buckets policies, where one probe returns a whole
	// run of tied entries.
	BucketProbes []int
	// TotalBucketProbes is the sum of BucketProbes.
	TotalBucketProbes int
	// Random is the number of random accesses. MEDRANK makes none; the
	// TA-style baseline pays one per list per newly discovered element.
	Random int
	// RandomPerList is the number of random accesses per list.
	RandomPerList []int
	// Failed counts access attempts that returned an error (always 0 on the
	// infallible in-memory paths; chaos runs report injected failures here).
	Failed int
	// Retried counts access attempts a retry policy re-issued after a
	// transient failure.
	Retried int
}

// MiddlewareCost returns the FLN middleware cost cs*Total + cr*Random.
func (st AccessStats) MiddlewareCost(cs, cr int) int {
	return cs*st.Total + cr*st.Random
}

// CostOptimalityRatio divides the run's middleware cost at weights (cs, cr)
// by a cost-aware per-instance lower bound — CertificateLowerBoundCost at
// the SAME weights, or the ratio compares incommensurable currencies. A
// ratio near 1 witnesses instance optimality under that cost model
// (Theorems 30-32 of the paper; FLN Theorems 8.5/9.1 for the weighted
// variants). Returns 0 when the bound is not positive (undefined, e.g.
// k = 0).
func (st AccessStats) CostOptimalityRatio(cs, cr, lowerBound int) float64 {
	if lowerBound <= 0 {
		return 0
	}
	return float64(st.MiddlewareCost(cs, cr)) / float64(lowerBound)
}

// statsFromReport converts an accountant snapshot into AccessStats.
func statsFromReport(r telemetry.AccessReport) AccessStats {
	ints := func(xs []int64) []int {
		out := make([]int, len(xs))
		for i, v := range xs {
			out[i] = int(v)
		}
		return out
	}
	return AccessStats{
		PerList:           ints(r.PerList),
		BucketProbes:      ints(r.BucketPerList),
		RandomPerList:     ints(r.RandomPerList),
		Total:             int(r.Sequential),
		MaxDepth:          int(r.MaxDepth),
		TotalBucketProbes: int(r.BucketIOs),
		Random:            int(r.Random),
		Failed:            int(r.Failed),
		Retried:           int(r.Retried),
	}
}

// Policy selects the probe-scheduling strategy.
type Policy int

const (
	// GlobalMerge always probes the list with the smallest frontier
	// position, consuming entries in globally non-decreasing position
	// order. It certifies medians with the fewest probes.
	GlobalMerge Policy = iota
	// RoundRobin probes every list once per round, the schedule described
	// in Section 6 of the paper ("access each of the partial rankings, one
	// element at a time"). It reads at most one round more than necessary
	// per list and matches the database setting of one cheap cursor per
	// index.
	RoundRobin
	// GlobalMergeBuckets is GlobalMerge at bucket granularity: one probe
	// consumes an entire bucket (an index scan over a few-valued attribute
	// returns the whole run of tied rows in one I/O). Element counts still
	// accumulate in AccessStats.PerList; AccessStats.BucketProbes counts
	// the I/Os.
	GlobalMergeBuckets
	// RoundRobinBuckets is RoundRobin at bucket granularity.
	RoundRobinBuckets
)

// Result is the outcome of a MEDRANK run.
type Result struct {
	// TopK is the aggregated top-k list over the full domain, identical to
	// aggregate.MedianTopK's offline answer (lower medians, ties broken by
	// element ID).
	TopK *ranking.PartialRanking
	// Winners lists the k winning elements best-first.
	Winners []int
	// Medians2 holds the doubled lower-median position of each winner.
	Medians2 []int64
	// Stats is the access accounting.
	Stats AccessStats
	// Degraded is non-nil when one or more input lists died mid-query and
	// the answer is the exact aggregation of the surviving lists only. It
	// carries which lists were lost, the accesses wasted on them, and a
	// conservative per-winner quality certificate. Nil on fault-free runs.
	Degraded *Degraded
	// Approx is non-nil on TA runs: the FLN (1+θ) early-stop certificate.
	// At θ = 0 it certifies an exact answer (Ratio 1, EarlyStop false). Nil
	// on the other engines.
	Approx *ApproxCertificate
	// Intervals2 is non-nil on NRA/CA runs: per winner, the certified doubled
	// median interval [best, worst] at stop time. The winner SET is exact even
	// when intervals are open — interval domination certifies set membership
	// without pinning each median; Medians2 then holds the certified upper
	// bounds. The hi endpoint is MaxInt64-1 (the bottom-of-order sentinel)
	// for under-observed winners of degraded runs.
	Intervals2 [][2]int64
	// BufferPeak is the peak number of simultaneously live candidates
	// (probed, not yet cleared) on NRA/CA runs — the engine's working set,
	// which interval clearing keeps below n. Zero on other engines.
	BufferPeak int
}

// FullScanCost returns the access cost of the naive approach that reads
// every list completely: n entries per list.
func FullScanCost(rankings []*ranking.PartialRanking) AccessStats {
	st := AccessStats{PerList: make([]int, len(rankings))}
	for i, r := range rankings {
		st.PerList[i] = r.N()
		st.Total += r.N()
		if r.N() > st.MaxDepth {
			st.MaxDepth = r.N()
		}
	}
	return st
}

// CertificateLowerBoundCost returns a conservative lower bound on the FLN
// middleware cost ANY correct deterministic algorithm must spend on this
// instance at weights (cs, cr). For each winner w, the algorithm has to learn
// w's position in at least ceil(m/2) lists to pin its median, and learning it
// in list i costs at least min(cs·depth_i, cr) — a sequential scan down to
// its bucket (sequential access cannot skip) or a single random access,
// whichever is cheaper on that list. The cheapest choice is the ceil(m/2)
// lists where w is cheapest; the bound takes the most expensive winner.
//
// cr <= 0 selects the NRA regime (random access unavailable): at
// (cs, cr) = (1, 0) it is the sequential-probe bound of the paper, the
// denominator of experiment E7's instance-optimality ratio. A winner outside
// a list's domain contributes nothing there: no access of either kind can
// observe it, so it is skipped instead of indexed.
func CertificateLowerBoundCost(rankings []*ranking.PartialRanking, winners []int, cs, cr int) int {
	m := len(rankings)
	needed := (m + 1) / 2
	best := 0
	costs := make([]int, 0, m)
	for _, w := range winners {
		costs = costs[:0]
		for _, r := range rankings {
			if w < 0 || w >= r.N() {
				continue // absent from this list: unobservable at any price
			}
			c := cs * scanDepth(r, r.BucketOf(w))
			if cr > 0 && cr < c {
				c = cr
			}
			costs = append(costs, c)
		}
		slices.Sort(costs)
		total := 0
		for i := 0; i < needed && i < len(costs); i++ {
			total += costs[i]
		}
		if total > best {
			best = total
		}
	}
	return best
}

// scanDepth is the number of sequential accesses that reveal an element of
// bucket b: the entries strictly before b plus the probe that reveals the
// element itself. A bucket of size z after s entries sits at doubled
// position 2s+z+1, so the depth s+1 is read off it in O(1).
func scanDepth(r *ranking.PartialRanking, b int) int {
	return int(r.BucketPos2(b)-int64(r.BucketSize(b))+1) / 2
}

// selectTopK ranks the elements with a known median (med < MaxInt64) by
// (median, element ID) and returns the first k with their doubled medians:
// a bounded heap keeps the k smallest, and only those are sorted.
func selectTopK(med []int64, k int) (winners []int, medians2 []int64) {
	top := make(pairMaxHeap, 0, k)
	for e, v := range med {
		if v < math.MaxInt64 {
			top.offer(pair{v, e}, k)
		}
	}
	slices.SortFunc(top, func(a, b pair) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.e, b.e)
	})
	winners = make([]int, 0, len(top))
	for _, p := range top {
		winners = append(winners, p.e)
		medians2 = append(medians2, p.v)
	}
	return winners, medians2
}
