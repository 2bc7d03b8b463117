package topk

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/randrank"
)

// TestEngineAllocsBoundedInN pins the engines' allocation profile: a run's
// allocations may grow with m and k but not with the number of entries it
// reads. Each engine runs on the same catalog shape at n=1000 and n=4000 (it
// reads several times as many entries at the larger n); the allocation
// counts may differ by at most 4·m, room for each list's replay log to
// double twice more. A per-access or per-element allocation would add
// thousands.
func TestEngineAllocsBoundedInN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	const m, k = 8, 10
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"medrank", Spec{Algo: AlgoMedRank, K: k, Policy: GlobalMerge}},
		{"ta", Spec{Algo: AlgoTA, K: k}},
		{"nra", Spec{Algo: AlgoNRA, K: k}},
		{"ca", Spec{Algo: AlgoCA, K: k, CostRatio: 10}},
	} {
		measure := func(n int) (allocs float64, read int) {
			in := randrank.CatalogEnsemble(rand.New(rand.NewSource(2)), n, m, 8, 1.0, 0.05).Rankings
			allocs = testing.AllocsPerRun(3, func() {
				sources, acc, err := ListSources(in)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(context.Background(), tc.spec, sources, acc)
				if err != nil {
					t.Fatal(err)
				}
				read = res.Stats.Total + res.Stats.Random
			})
			return allocs, read
		}
		small, readSmall := measure(1000)
		large, readLarge := measure(4000)
		t.Logf("%s: %.0f allocs reading %d entries at n=1000, %.0f reading %d at n=4000",
			tc.name, small, readSmall, large, readLarge)
		if readLarge < 2*readSmall {
			t.Fatalf("%s: the n=4000 run reads %d entries, not at least twice the n=1000 run's %d", tc.name, readLarge, readSmall)
		}
		if large-small > 4*m {
			t.Errorf("%s: allocations grew by %.0f from n=1000 to n=4000, more than 4·m = %d", tc.name, large-small, 4*m)
		}
	}
}
