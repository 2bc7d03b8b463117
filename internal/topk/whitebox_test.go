package topk

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/randrank"
	"repro/internal/ranking"
)

// newExhaustedRun builds a medrankRun over list sources that have been fully
// drained into the certification core without any certification
// bookkeeping, to exercise the finalize path directly (on complete lists the
// drive loop certifies at probe time, so the path is unreachable through the
// public API).
func newExhaustedRun(t *testing.T, rankings []*ranking.PartialRanking, k int) *medrankRun {
	t.Helper()
	sources, acc, err := ListSources(rankings)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := newSurvivors(sources, k, acc)
	if err != nil {
		t.Fatal(err)
	}
	run := &medrankRun{survivors: sv, policy: RoundRobin}
	run.rebuild()
	c := run.core
	for li, orig := range sv.aliveIdx {
		for {
			e, ok, err := sources[orig].Next(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			sv.learn(orig, e)
			c.observe(e.Elem, e.Pos2)
		}
		c.setFrontier(li, math.MaxInt64)
	}
	return run
}

func TestFinalizeExhaustedPromotesEverything(t *testing.T) {
	a := ranking.MustFromBuckets(4, [][]int{{0, 1, 2, 3}})
	b := ranking.MustFromOrder([]int{3, 2, 1, 0})
	run := newExhaustedRun(t, []*ranking.PartialRanking{a, b}, 2)
	run.core.finalize()
	if run.core.exactCount != 4 {
		t.Fatalf("exactCount = %d, want 4", run.core.exactCount)
	}
	winners, medians := selectTopK(run.core.exactMed, 2)
	if len(winners) != 2 || len(medians) != 2 {
		t.Fatalf("selectTopK = %v %v", winners, medians)
	}
	// Lower median (m=2) is the min of the two positions: element 3 has
	// positions {2.5, 1} -> min doubled = 2.
	if winners[0] != 3 || medians[0] != 2 {
		t.Errorf("winner = %d med2 = %d, want 3 and 2", winners[0], medians[0])
	}
	if !run.core.certified() {
		t.Error("fully promoted run not certified")
	}
}

// TestFinalizePartialSentinelsUnderObserved pins the truncation convention:
// an element observed in fewer than `needed` lists gets the bottom-of-order
// sentinel, behind every known median, instead of a median.
func TestFinalizePartialSentinelsUnderObserved(t *testing.T) {
	a := ranking.MustFromOrder([]int{0, 1})
	run := newExhaustedRun(t, []*ranking.PartialRanking{a, a}, 2)
	run.core.cnt[0] = 0 // as if every scan ended before element 0
	run.core.finalize()
	if got := run.core.exactMed[0]; got != math.MaxInt64-1 {
		t.Fatalf("under-observed element median = %d, want the MaxInt64-1 sentinel", got)
	}
	winners, _ := selectTopK(run.core.exactMed, 2)
	if !reflect.DeepEqual(winners, []int{1, 0}) {
		t.Errorf("winners = %v, want [1 0]", winners)
	}
}

func TestDriveExitsViaFinalize(t *testing.T) {
	// Every frontier already reports exhaustion, so pick finds no list and
	// drive goes through the finalize path.
	a := ranking.MustFromOrder([]int{1, 0})
	run := newExhaustedRun(t, []*ranking.PartialRanking{a}, 1)
	if err := run.drive(context.Background()); err != nil {
		t.Fatalf("drive: %v", err)
	}
	if run.core.exactCount != 2 {
		t.Fatalf("drive+finalize promoted %d, want 2", run.core.exactCount)
	}
	winners, _ := selectTopK(run.core.exactMed, 1)
	if len(winners) != 1 || winners[0] != 1 {
		t.Errorf("winners = %v, want [1]", winners)
	}
}

func TestProbeOnExhaustedCursor(t *testing.T) {
	a := ranking.MustFromOrder([]int{0})
	run := newExhaustedRun(t, []*ranking.PartialRanking{a}, 0)
	// Probing an exhausted list must be a safe no-op that pins the frontier.
	run.core.setFrontier(0, 0)
	if err := run.probe(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if run.core.fr.pos[0] != math.MaxInt64 {
		t.Error("frontier not pinned at exhaustion")
	}
}

// TestNthSmallestMatchesSort checks the in-place selection against a sorted
// copy on random inputs of every length up to 70 (past the insertion-sort
// cutoff), from all-distinct to all-equal values, at every rank.
func TestNthSmallestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 70; n++ {
		for _, span := range []int64{1, 3, int64(n), 1 << 40} {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = rng.Int63n(span)
			}
			want := slices.Clone(xs)
			slices.Sort(want)
			for k := 1; k <= n; k++ {
				buf := slices.Clone(xs)
				if got := nthSmallest(buf, k); got != want[k-1] {
					t.Fatalf("n=%d span=%d k=%d: got %d, want %d (input %v)", n, span, k, got, want[k-1], xs)
				}
				slices.Sort(buf)
				if !slices.Equal(buf, want) {
					t.Fatalf("n=%d span=%d k=%d: selection changed the multiset", n, span, k)
				}
			}
		}
	}
}

// TestPairMaxHeapKeepsKSmallest checks offer against sorting: after any
// sequence of offers the heap holds the k lexicographically smallest pairs,
// largest at the root.
func TestPairMaxHeapKeepsKSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		n, k := 1+rng.Intn(60), rng.Intn(12)
		all := make([]pair, n)
		var h pairMaxHeap
		for i := range all {
			all[i] = pair{rng.Int63n(8), i}
			h.offer(all[i], k)
		}
		slices.SortFunc(all, func(a, b pair) int {
			if lexLT(a.v, a.e, b.v, b.e) {
				return -1
			}
			return 1
		})
		want := all[:min(k, n)]
		if len(h) != len(want) {
			t.Fatalf("n=%d k=%d: heap holds %d pairs, want %d", n, k, len(h), len(want))
		}
		if len(h) > 0 && h[0] != want[len(want)-1] {
			t.Fatalf("n=%d k=%d: root %v, want %v", n, k, h[0], want[len(want)-1])
		}
		got := slices.Clone([]pair(h))
		slices.SortFunc(got, func(a, b pair) int {
			if lexLT(a.v, a.e, b.v, b.e) {
				return -1
			}
			return 1
		})
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d: heap %v, want %v", n, k, got, want)
		}
	}
}

// TestCertificateLowerBoundScanDepth checks the O(1) depth of
// CertificateLowerBoundCost against its definition — one plus the sizes of
// every earlier bucket — on random partial rankings.
func TestCertificateLowerBoundScanDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(80)
		r := randrank.Partial(rng, n, 1+rng.Intn(n))
		depth := 1
		for b := 0; b < r.NumBuckets(); b++ {
			if got := scanDepth(r, b); got != depth {
				t.Fatalf("trial %d bucket %d of %v: scanDepth %d, summed sizes give %d", trial, b, r, got, depth)
			}
			depth += r.BucketSize(b)
		}
	}
}

// TestFrontiersCache checks that the cached order statistics follow every
// change that can move them: a new frontier value and a new survivor median
// index.
func TestFrontiersCache(t *testing.T) {
	f := newFrontiers(4, 2)
	for i, v := range []int64{7, 3, 9, 3} {
		f.set(i, v)
	}
	if got := f.unseenBound(); got != 3 {
		t.Fatalf("2nd smallest of [7 3 9 3] = %d, want 3", got)
	}
	if got := f.argmin(); got != 1 {
		t.Fatalf("argmin = %d, want the first of the tied slots, 1", got)
	}
	if f.set(2, 9) {
		t.Error("setting an unchanged value reported a change")
	}
	if !f.set(1, 8) {
		t.Error("setting a new value reported no change")
	}
	if got := f.unseenBound(); got != 7 {
		t.Errorf("2nd smallest of [7 8 9 3] = %d, want 7", got)
	}
	if got := f.argmin(); got != 3 {
		t.Errorf("argmin = %d, want 3", got)
	}
	f.setNeeded(3)
	if got := f.unseenBound(); got != 8 {
		t.Errorf("3rd smallest of [7 8 9 3] = %d, want 8", got)
	}
	for i := range f.pos {
		f.set(i, math.MaxInt64)
	}
	if got := f.argmin(); got != -1 {
		t.Errorf("argmin over exhausted slots = %d, want -1", got)
	}
}
