package topk

import (
	"context"
	"math"
	"reflect"
	"testing"

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
			c.seen[e.Elem] = append(c.seen[e.Elem], e.Pos2)
		}
		c.frontier[li] = math.MaxInt64
	}
	c.probedDistinct = c.n
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
	run.core.seen[0] = nil // as if every scan ended before element 0
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
	run.core.frontier[0] = 0
	if err := run.probe(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if run.core.frontier[0] != math.MaxInt64 {
		t.Error("frontier not pinned at exhaustion")
	}
}
