package topk

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/aggregate"
	"repro/internal/faults"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// faultSeed returns the chaos seed: RANKTIES_FAULT_SEED when set (the CI
// chaos job runs the suite under a small seed matrix), 1 otherwise.
func faultSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("RANKTIES_FAULT_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("RANKTIES_FAULT_SEED=%q: %v", s, err)
	}
	return v
}

// chaosSources wraps every ranking as an accounted source, passing each
// through wrap (identity when nil).
func chaosSources(rankings []*ranking.PartialRanking, acc *telemetry.AccessAccountant,
	wrap func(i int, s faults.Source) faults.Source) []faults.Source {
	srcs := make([]faults.Source, len(rankings))
	for i, r := range rankings {
		s := NewListSource(r, acc, i)
		if wrap != nil {
			s = wrap(i, s)
		}
		srcs[i] = s
	}
	return srcs
}

func chaosEnsemble(t *testing.T, n, m int) []*ranking.PartialRanking {
	t.Helper()
	rng := rand.New(rand.NewSource(faultSeed(t)))
	return randrank.CatalogEnsemble(rng, n, m, 6, 1.0, 1.5).Rankings
}

// pinnedEnsemble is chaosEnsemble(400, 5) at fault seed 1, whatever
// RANKTIES_FAULT_SEED says: the instance recordedAccesses was measured on.
func pinnedEnsemble() []*ranking.PartialRanking {
	return randrank.CatalogEnsemble(rand.New(rand.NewSource(1)), 400, 5, 6, 1.0, 1.5).Rankings
}

// recordedAccesses holds {Stats.Total, Stats.Random, Stats.TotalBucketProbes}
// of each engine on pinnedEnsemble at k = 10, recorded from the earlier
// cursor-driven MEDRANK and TA and the NRA/CA of the same release, and on the
// wide instances of TestRecordedAccessCountsWide: any change to what an
// engine reads on these instances shows here.
var recordedAccesses = map[string][3]int{
	"medrank/GlobalMerge":        {652, 0, 652},
	"medrank/RoundRobin":         {814, 0, 814},
	"medrank/GlobalMergeBuckets": {652, 0, 4},
	"medrank/RoundRobinBuckets":  {652, 0, 4},
	"ta":                         {813, 656, 0},
	"ta/theta0":                  {813, 656, 0},
	"nra":                        {815, 0, 815},
	"ca/ratio10":                 {815, 0, 815},

	// TestRecordedAccessCountsWide: wideEnsemble at m=24 (n=2000) and m=32
	// (n=1000), recorded before the certification caches existed.
	"m24/k1/medrank/GlobalMerge":        {17664, 0, 17664},
	"m24/k1/medrank/RoundRobin":         {17664, 0, 17664},
	"m24/k1/ta":                         {17653, 18906, 0},
	"m24/k1/nra":                        {17664, 0, 17664},
	"m24/k1/ca/ratio10":                 {17664, 23, 17664},
	"m24/k10/medrank/GlobalMerge":       {17664, 0, 17664},
	"m24/k10/medrank/RoundRobin":        {17664, 0, 17664},
	"m24/k10/ta":                        {17653, 18906, 0},
	"m24/k10/nra":                       {17664, 0, 17664},
	"m24/k10/ca/ratio10":                {17664, 38, 17664},
	"m24/k10/medrank/GlobalMerge/death": {16968, 0, 16968},
	"m24/k10/medrank/RoundRobin/death":  {16971, 0, 16971},
	"m24/k10/ta/death":                  {16936, 18061, 0},
	"m24/k10/nra/death":                 {16971, 0, 16971},
	"m24/k10/ca/ratio10/death":          {16969, 38, 16969},
	"m32/k1/medrank/GlobalMerge":        {11648, 0, 11648},
	"m32/k1/medrank/RoundRobin":         {11775, 0, 11775},
	"m32/k1/ta":                         {11761, 13857, 0},
	"m32/k1/nra":                        {32, 0, 32},
	"m32/k1/ca/ratio10":                 {32, 0, 32},
	"m32/k10/medrank/GlobalMerge":       {11648, 0, 11648},
	"m32/k10/medrank/RoundRobin":        {11775, 0, 11775},
	"m32/k10/ta":                        {11761, 13857, 0},
	"m32/k10/nra":                       {11776, 0, 11776},
	"m32/k10/ca/ratio10":                {11776, 51, 11776},
}

func checkRecorded(t *testing.T, name string, res *Result) {
	t.Helper()
	want, ok := recordedAccesses[name]
	if !ok {
		t.Fatalf("no recorded access counts for %q", name)
	}
	got := [3]int{res.Stats.Total, res.Stats.Random, res.Stats.TotalBucketProbes}
	if got != want {
		t.Errorf("%s: {total, random, bucket probes} = %v, recorded %v", name, got, want)
	}
}

// checkOracle compares an exact engine's answer with the offline lower-median
// top-k: the same top-k list, and every winner's median.
func checkOracle(t *testing.T, name string, in []*ranking.PartialRanking, k int, res *Result) {
	t.Helper()
	want, err := aggregate.MedianTopK(in, k)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TopK.Equal(want) {
		t.Fatalf("%s: top-k list %v, offline %v", name, res.TopK, want)
	}
	f4, err := aggregate.MedianScores2(in, aggregate.LowerMedian)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range res.Winners {
		if res.Medians2[i]*2 != f4[w] {
			t.Fatalf("%s: median of %d = %d/2, offline %d/4", name, w, res.Medians2[i], f4[w])
		}
	}
}

// TestMedRankOverFaultFreeMatchesMedRank pins fault-free MEDRANK, through
// both the source entry point and the in-memory adapter, to the offline
// answer and to the recorded access counts of every policy.
func TestMedRankOverFaultFreeMatchesMedRank(t *testing.T) {
	in := pinnedEnsemble()
	for _, pol := range []struct {
		name string
		p    Policy
	}{
		{"GlobalMerge", GlobalMerge}, {"RoundRobin", RoundRobin},
		{"GlobalMergeBuckets", GlobalMergeBuckets}, {"RoundRobinBuckets", RoundRobinBuckets},
	} {
		acc := telemetry.NewAccessAccountant(len(in))
		got, err := MedRankOver(context.Background(), chaosSources(in, acc, nil), 10, pol.p, acc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Degraded != nil {
			t.Fatalf("%s: fault-free run reported Degraded", pol.name)
		}
		checkOracle(t, pol.name, in, 10, got)
		checkRecorded(t, "medrank/"+pol.name, got)
		viaRankings, err := MedRank(in, 10, pol.p)
		if err != nil {
			t.Fatal(err)
		}
		checkOracle(t, pol.name, in, 10, viaRankings)
		checkRecorded(t, "medrank/"+pol.name, viaRankings)
	}
}

// TestRecordedAccessCounts runs every engine through Run, the one dispatch,
// against the offline answer (exact engines) or answer set (NRA/CA) and the
// recorded access counts.
func TestRecordedAccessCounts(t *testing.T) {
	in := pinnedEnsemble()
	wantSet := offlineSet(t, in, 10)
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"medrank/GlobalMerge", Spec{Algo: AlgoMedRank, K: 10, Policy: GlobalMerge}},
		{"medrank/RoundRobin", Spec{K: 10, Policy: RoundRobin}},
		{"medrank/GlobalMergeBuckets", Spec{Algo: AlgoMedRank, K: 10, Policy: GlobalMergeBuckets}},
		{"medrank/RoundRobinBuckets", Spec{Algo: AlgoMedRank, K: 10, Policy: RoundRobinBuckets}},
		{"ta", Spec{Algo: AlgoTA, K: 10}},
		{"nra", Spec{Algo: AlgoNRA, K: 10, CostRatio: 10}},
		{"ca/ratio10", Spec{Algo: AlgoCA, K: 10}},
	} {
		sources, acc, err := ListSources(in)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), tc.spec, sources, acc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		checkRecorded(t, tc.name, res)
		if tc.spec.Algo == AlgoNRA || tc.spec.Algo == AlgoCA {
			if got := sortedSet(res.Winners); !reflect.DeepEqual(got, wantSet) {
				t.Errorf("%s: answer set %v, offline %v", tc.name, got, wantSet)
			}
			continue
		}
		checkOracle(t, tc.name, in, 10, res)
	}
	sources, acc, _ := ListSources(in)
	if _, err := Run(context.Background(), Spec{Algo: "bogus", K: 1}, sources, acc); err == nil {
		t.Error("Run accepted an unknown algo")
	}
}

// TestMedRankOverSingleDeathDeterministic is the acceptance chaos test:
// killing any single list out of m=5 mid-query yields a Degraded result that
// is identical across runs and answer-equivalent to a fault-free MEDRANK over
// the four surviving lists.
func TestMedRankOverSingleDeathDeterministic(t *testing.T) {
	const n, m, k = 300, 5, 8
	in := chaosEnsemble(t, n, m)
	for _, pol := range []Policy{GlobalMerge, RoundRobin, GlobalMergeBuckets, RoundRobinBuckets} {
		for victim := 0; victim < m; victim++ {
			run := func() *Result {
				acc := telemetry.NewAccessAccountant(m)
				srcs := chaosSources(in, acc, func(i int, s faults.Source) faults.Source {
					if i != victim {
						return s
					}
					return faults.Inject(s, faults.Plan{DeathAfter: 1})
				})
				res, err := MedRankOver(context.Background(), srcs, k, pol, acc)
				if err != nil {
					t.Fatalf("policy %d victim %d: %v", pol, victim, err)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a.Winners, b.Winners) || !reflect.DeepEqual(a.Medians2, b.Medians2) ||
				!reflect.DeepEqual(a.Degraded, b.Degraded) || !reflect.DeepEqual(a.Stats, b.Stats) {
				t.Fatalf("policy %d victim %d: two identical chaos runs diverged", pol, victim)
			}
			if a.Degraded == nil {
				// Merge and bucket-granular scheduling may certify without
				// ever probing the victim twice (three drained first buckets
				// can already certify the top k); element-granular
				// round-robin cannot — it needs k distinct exact elements,
				// far more than one round — so there a missing death is a bug.
				if pol == RoundRobin {
					t.Fatalf("policy %d victim %d: death not reported", pol, victim)
				}
				want, err := MedRank(in, k, pol)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Winners, want.Winners) {
					t.Fatalf("policy %d victim %d: unprobed victim changed the answer", pol, victim)
				}
				continue
			}
			if !reflect.DeepEqual(a.Degraded.Lost, []int{victim}) || a.Degraded.Survivors != m-1 {
				t.Fatalf("policy %d victim %d: Degraded = %+v", pol, victim, a.Degraded)
			}
			if a.Degraded.WastedSequential <= 0 {
				t.Errorf("policy %d victim %d: no wasted accesses recorded for the dead list", pol, victim)
			}

			survivors := make([]*ranking.PartialRanking, 0, m-1)
			for i, r := range in {
				if i != victim {
					survivors = append(survivors, r)
				}
			}
			want, err := MedRank(survivors, k, pol)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Winners, want.Winners) || !reflect.DeepEqual(a.Medians2, want.Medians2) {
				t.Fatalf("policy %d victim %d: degraded answer differs from fault-free MEDRANK over survivors:\n got %v %v\nwant %v %v",
					pol, victim, a.Winners, a.Medians2, want.Winners, want.Medians2)
			}
			if !a.TopK.Equal(want.TopK) {
				t.Fatalf("policy %d victim %d: degraded TopK differs from survivors' TopK", pol, victim)
			}
		}
	}
}

// TestMedRankOverQualityInterval checks the Degraded certificate: every
// winner's interval must contain the median the winner would have had on the
// full fault-free instance.
func TestMedRankOverQualityInterval(t *testing.T) {
	const n, m, k = 300, 5, 8
	in := chaosEnsemble(t, n, m)
	j := (m + 1) / 2
	for victim := 0; victim < m; victim++ {
		acc := telemetry.NewAccessAccountant(m)
		srcs := chaosSources(in, acc, func(i int, s faults.Source) faults.Source {
			if i != victim {
				return s
			}
			return faults.Inject(s, faults.Plan{DeathAfter: 1})
		})
		res, err := MedRankOver(context.Background(), srcs, k, RoundRobin, acc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded == nil {
			t.Fatal("death not reported")
		}
		if len(res.Degraded.MedianIntervals2) != len(res.Winners) {
			t.Fatalf("got %d intervals for %d winners", len(res.Degraded.MedianIntervals2), len(res.Winners))
		}
		for i, w := range res.Winners {
			all := make([]int64, m)
			for l, r := range in {
				all[l] = r.Pos2(w)
			}
			slices.Sort(all)
			truth := all[j-1]
			iv := res.Degraded.MedianIntervals2[i]
			if truth < iv[0] || truth > iv[1] {
				t.Errorf("victim %d winner %d: fault-free median %d outside certified [%d, %d]",
					victim, w, truth, iv[0], iv[1])
			}
		}
	}
}

func TestMedRankOverTransientsAbsorbed(t *testing.T) {
	in := chaosEnsemble(t, 300, 5)
	want, err := MedRank(in, 10, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	seed := faultSeed(t)
	acc := telemetry.NewAccessAccountant(len(in))
	sl := &faults.FakeSleeper{}
	srcs := chaosSources(in, acc, func(i int, s faults.Source) faults.Source {
		s = faults.Inject(s, faults.Plan{Seed: seed + int64(i), TransientRate: 0.05})
		return faults.WithRetry(s, faults.RetryPolicy{
			MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: time.Second,
			Multiplier: 2, JitterSeed: seed, Sleeper: sl,
		}, acc, i)
	})
	got, err := MedRankOver(context.Background(), srcs, 10, RoundRobin, acc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded != nil {
		t.Fatal("retry-absorbed transients must not degrade the answer")
	}
	if !reflect.DeepEqual(got.Winners, want.Winners) || !reflect.DeepEqual(got.Medians2, want.Medians2) {
		t.Fatalf("answer under absorbed transients diverged:\n got %v\nwant %v", got.Winners, want.Winners)
	}
	if got.Stats.Failed == 0 || got.Stats.Retried == 0 {
		t.Errorf("expected injected failures in stats, got failed=%d retried=%d",
			got.Stats.Failed, got.Stats.Retried)
	}
}

func TestMedRankOverRetryExhaustionKillsList(t *testing.T) {
	in := chaosEnsemble(t, 200, 5)
	const victim = 2
	acc := telemetry.NewAccessAccountant(len(in))
	srcs := chaosSources(in, acc, func(i int, s faults.Source) faults.Source {
		if i != victim {
			return s
		}
		s = faults.Inject(s, faults.Plan{Seed: 1, TransientRate: 1})
		return faults.WithRetry(s, faults.RetryPolicy{
			MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Second,
			Multiplier: 2, JitterSeed: 1, Sleeper: &faults.FakeSleeper{},
		}, acc, i)
	})
	res, err := MedRankOver(context.Background(), srcs, 5, RoundRobin, acc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == nil || !reflect.DeepEqual(res.Degraded.Lost, []int{victim}) {
		t.Fatalf("Degraded = %+v, want lost=[%d]", res.Degraded, victim)
	}
	if res.Stats.Failed < 3 {
		t.Errorf("Stats.Failed = %d, want >= MaxAttempts", res.Stats.Failed)
	}
}

func TestMedRankOverTruncatedListNoDeath(t *testing.T) {
	in := chaosEnsemble(t, 200, 5)
	run := func() *Result {
		acc := telemetry.NewAccessAccountant(len(in))
		srcs := chaosSources(in, acc, func(i int, s faults.Source) faults.Source {
			if i != 1 {
				return s
			}
			return faults.Inject(s, faults.Plan{TruncateAt: 30})
		})
		res, err := MedRankOver(context.Background(), srcs, 5, RoundRobin, acc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Degraded != nil {
		t.Fatal("a truncated list is not a dead list")
	}
	if len(a.Winners) != 5 {
		t.Fatalf("got %d winners, want 5", len(a.Winners))
	}
	if !reflect.DeepEqual(a.Winners, b.Winners) || !reflect.DeepEqual(a.Medians2, b.Medians2) {
		t.Fatal("truncated runs not deterministic")
	}
}

func TestMedRankOverAllListsDead(t *testing.T) {
	in := chaosEnsemble(t, 100, 3)
	acc := telemetry.NewAccessAccountant(len(in))
	srcs := chaosSources(in, acc, func(i int, s faults.Source) faults.Source {
		return faults.Inject(s, faults.Plan{DeathAfter: 5})
	})
	_, err := MedRankOver(context.Background(), srcs, 5, RoundRobin, acc)
	if err == nil {
		t.Fatal("all lists dead: expected an error")
	}
	if !errors.Is(err, faults.ErrSourceDead) {
		t.Errorf("error %v does not wrap ErrSourceDead", err)
	}
}

// TestMedRankOverDeadline checks that a deadline aborts an in-flight run
// (injected latency makes every access slow) and leaks no goroutines.
func TestMedRankOverDeadline(t *testing.T) {
	in := chaosEnsemble(t, 2000, 4)
	before := runtime.NumGoroutine()

	acc := telemetry.NewAccessAccountant(len(in))
	srcs := chaosSources(in, acc, func(i int, s faults.Source) faults.Source {
		return faults.Inject(s, faults.Plan{Latency: 2 * time.Millisecond})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := MedRankOver(ctx, srcs, 50, RoundRobin, acc)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline abort took %v", elapsed)
	}

	deadlineFree := false
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			deadlineFree = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !deadlineFree {
		t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
	}
}

func TestMedRankContextCancelled(t *testing.T) {
	in := chaosEnsemble(t, 500, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MedRankContext(ctx, in, 10, GlobalMerge); !errors.Is(err, context.Canceled) {
		t.Fatalf("MedRankContext under canceled ctx: %v", err)
	}
	if _, err := ThresholdTopKContext(ctx, in, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("ThresholdTopKContext under canceled ctx: %v", err)
	}
}

// TestThresholdTopKOverFaultFreeMatchesTA pins fault-free TA, through both
// the source entry point and the in-memory adapter, to the offline answer and
// to the recorded access counts.
func TestThresholdTopKOverFaultFreeMatchesTA(t *testing.T) {
	in := pinnedEnsemble()
	acc := telemetry.NewAccessAccountant(len(in))
	got, err := ThresholdTopKOver(context.Background(), chaosSources(in, acc, nil), 10, acc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded != nil {
		t.Fatal("fault-free TA run reported Degraded")
	}
	checkOracle(t, "ta", in, 10, got)
	checkRecorded(t, "ta", got)
	viaRankings, err := ThresholdTopK(in, 10)
	if err != nil {
		t.Fatal(err)
	}
	checkOracle(t, "ta", in, 10, viaRankings)
	checkRecorded(t, "ta", viaRankings)
}

func TestThresholdTopKOverDeathDeterministic(t *testing.T) {
	const n, m, k = 300, 5, 8
	in := chaosEnsemble(t, n, m)
	j := (m + 1) / 2
	for victim := 0; victim < m; victim++ {
		run := func() *Result {
			acc := telemetry.NewAccessAccountant(m)
			srcs := chaosSources(in, acc, func(i int, s faults.Source) faults.Source {
				if i != victim {
					return s
				}
				return faults.Inject(s, faults.Plan{DeathAfter: 25})
			})
			res, err := ThresholdTopKOver(context.Background(), srcs, k, acc)
			if err != nil {
				t.Fatalf("victim %d: %v", victim, err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a.Winners, b.Winners) || !reflect.DeepEqual(a.Degraded, b.Degraded) {
			t.Fatalf("victim %d: chaos TA runs diverged", victim)
		}
		if a.Degraded == nil || !reflect.DeepEqual(a.Degraded.Lost, []int{victim}) || a.Degraded.Survivors != m-1 {
			t.Fatalf("victim %d: Degraded = %+v", victim, a.Degraded)
		}

		survivors := make([]*ranking.PartialRanking, 0, m-1)
		for i, r := range in {
			if i != victim {
				survivors = append(survivors, r)
			}
		}
		want, err := ThresholdTopK(survivors, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Winners, want.Winners) || !reflect.DeepEqual(a.Medians2, want.Medians2) {
			t.Fatalf("victim %d: degraded TA answer differs from fault-free TA over survivors:\n got %v %v\nwant %v %v",
				victim, a.Winners, a.Medians2, want.Winners, want.Medians2)
		}

		for i, w := range a.Winners {
			all := make([]int64, m)
			for l, r := range in {
				all[l] = r.Pos2(w)
			}
			slices.Sort(all)
			truth := all[j-1]
			iv := a.Degraded.MedianIntervals2[i]
			if truth < iv[0] || truth > iv[1] {
				t.Errorf("victim %d winner %d: fault-free median %d outside certified [%d, %d]",
					victim, w, truth, iv[0], iv[1])
			}
		}
	}
}

func TestThresholdTopKOverTruncatedResolvesByRandomAccess(t *testing.T) {
	in := chaosEnsemble(t, 200, 5)
	// Truncating a scan hides elements from discovery but not from random
	// access, so TA's degraded-free answer must equal the fault-free one.
	want, err := ThresholdTopK(in, 5)
	if err != nil {
		t.Fatal(err)
	}
	acc := telemetry.NewAccessAccountant(len(in))
	srcs := chaosSources(in, acc, func(i int, s faults.Source) faults.Source {
		return faults.Inject(s, faults.Plan{TruncateAt: 10})
	})
	got, err := ThresholdTopKOver(context.Background(), srcs, 5, acc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Degraded != nil {
		t.Fatal("truncation reported as death")
	}
	if !reflect.DeepEqual(got.Winners, want.Winners) || !reflect.DeepEqual(got.Medians2, want.Medians2) {
		t.Fatalf("truncated TA diverged:\n got %v %v\nwant %v %v",
			got.Winners, got.Medians2, want.Winners, want.Medians2)
	}
}

func TestMedRankOverValidation(t *testing.T) {
	in := chaosEnsemble(t, 50, 3)
	acc := telemetry.NewAccessAccountant(3)
	if _, err := MedRankOver(context.Background(), nil, 1, RoundRobin, nil); err == nil {
		t.Error("no sources accepted")
	}
	if _, err := MedRankOver(context.Background(), chaosSources(in, acc, nil), 51, RoundRobin, acc); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := MedRankOver(context.Background(), chaosSources(in, acc, nil), 1, Policy(99), acc); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := ThresholdTopKOver(context.Background(), nil, 1, nil); err == nil {
		t.Error("TA: no sources accepted")
	}
	// MedRankOver with k=0 certifies immediately.
	res, err := MedRankOver(context.Background(), chaosSources(in, acc, nil), 0, GlobalMerge, acc)
	if err != nil || len(res.Winners) != 0 {
		t.Errorf("k=0: res=%v err=%v", res, err)
	}
}

// offlineSet returns the offline top-k answer set: the k elements with the
// smallest (lower median, element ID).
func offlineSet(t *testing.T, in []*ranking.PartialRanking, k int) []int {
	t.Helper()
	f4, err := aggregate.MedianScores2(in, aggregate.LowerMedian)
	if err != nil {
		t.Fatal(err)
	}
	byMedian := make([]int, len(f4))
	for e := range byMedian {
		byMedian[e] = e
	}
	sort.SliceStable(byMedian, func(a, b int) bool { return f4[byMedian[a]] < f4[byMedian[b]] })
	return sortedSet(byMedian[:k])
}

// wideEnsemble is the serve-topk catalog shape at fixed seed 1: 8 Zipf(1.0)
// values, Mallows θ=0.05 — wide and tie-heavy, so frontiers move only at
// bucket boundaries and most probes leave every certification input
// unchanged.
func wideEnsemble(n, m int) []*ranking.PartialRanking {
	return randrank.CatalogEnsemble(rand.New(rand.NewSource(1)), n, m, 8, 1.0, 0.05).Rankings
}

// wideSpecs are the engines pinned on the wide instances.
var wideSpecs = []struct {
	name string
	spec Spec
}{
	{"medrank/GlobalMerge", Spec{Algo: AlgoMedRank, Policy: GlobalMerge}},
	{"medrank/RoundRobin", Spec{Algo: AlgoMedRank, Policy: RoundRobin}},
	{"ta", Spec{Algo: AlgoTA}},
	{"nra", Spec{Algo: AlgoNRA}},
	{"ca/ratio10", Spec{Algo: AlgoCA, CostRatio: 10}},
}

// TestRecordedAccessCountsWide pins every engine's access counts on the wide
// serve-topk shapes (n=2000/m=24 and n=1000/m=32, k ∈ {1, 10}), where the
// certification tests mostly re-evaluate unchanged inputs, plus one run per
// engine in which list 3 dies after 40 accesses, so the rebuilt state after
// a death is pinned too. Answers are checked against the offline oracle over
// the lists that took part.
func TestRecordedAccessCountsWide(t *testing.T) {
	const victim = 3
	for _, shape := range []struct{ n, m int }{{2000, 24}, {1000, 32}} {
		in := wideEnsemble(shape.n, shape.m)
		for _, k := range []int{1, 10} {
			for _, death := range []bool{false, true} {
				if death && (k != 10 || shape.m != 24) {
					continue
				}
				for _, tc := range wideSpecs {
					name := fmt.Sprintf("m%d/k%d/%s", shape.m, k, tc.name)
					acc := telemetry.NewAccessAccountant(shape.m)
					survivors := in
					var wrap func(int, faults.Source) faults.Source
					if death {
						name += "/death"
						survivors = append(append([]*ranking.PartialRanking(nil), in[:victim]...), in[victim+1:]...)
						wrap = func(i int, s faults.Source) faults.Source {
							if i != victim {
								return s
							}
							return faults.Inject(s, faults.Plan{DeathAfter: 40})
						}
					}
					spec := tc.spec
					spec.K = k
					res, err := Run(context.Background(), spec, chaosSources(in, acc, wrap), acc)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if death != (res.Degraded != nil) {
						t.Fatalf("%s: Degraded = %+v", name, res.Degraded)
					}
					checkRecorded(t, name, res)
					if spec.Algo == AlgoNRA || spec.Algo == AlgoCA {
						if got, wantSet := sortedSet(res.Winners), offlineSet(t, survivors, k); !reflect.DeepEqual(got, wantSet) {
							t.Errorf("%s: answer set %v, offline %v", name, got, wantSet)
						}
						continue
					}
					checkOracle(t, name, survivors, k, res)
				}
			}
		}
	}
}
