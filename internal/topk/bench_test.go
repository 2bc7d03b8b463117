package topk

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/randrank"
	"repro/internal/ranking"
	"repro/internal/telemetry"
)

// The instance-optimality story in numbers: probes on correlated inputs
// stay near the certificate bound; uniform inputs force deep reads.
func BenchmarkMedRankPolicies(b *testing.B) {
	for _, theta := range []float64{2.0, 0.0} {
		rng := rand.New(rand.NewSource(9))
		in, _ := randrank.MallowsEnsemble(rng, 5000, 5, theta)
		for _, pol := range []struct {
			name string
			p    Policy
		}{{"merge", GlobalMerge}, {"roundrobin", RoundRobin}} {
			b.Run(fmt.Sprintf("theta=%.0f/%s", theta, pol.name), func(b *testing.B) {
				var total int
				for i := 0; i < b.N; i++ {
					res, err := MedRank(in, 10, pol.p)
					if err != nil {
						b.Fatal(err)
					}
					total = res.Stats.Total
				}
				b.ReportMetric(float64(total), "probes")
			})
		}
	}
}

func BenchmarkListSourceScan(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pr := randrank.Partial(rng, 100000, 50)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewListSource(pr, telemetry.NewAccessAccountant(1), 0)
		for {
			if _, ok, _ := s.Next(ctx); !ok {
				break
			}
		}
	}
}

func BenchmarkMedRankFewValuedCatalog(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ens := randrank.CatalogEnsemble(rng, 10000, 5, 5, 1.0, 1.5)
	var in []*ranking.PartialRanking = ens.Rankings
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MedRank(in, 10, RoundRobin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginesWide runs every engine on the wide, tie-heavy serve-topk
// catalog shapes (wideEnsemble), where frontiers move only at bucket
// boundaries and the certification tests mostly see unchanged inputs.
func BenchmarkEnginesWide(b *testing.B) {
	for _, shape := range []struct{ n, m int }{{2000, 24}, {1000, 32}} {
		in := wideEnsemble(shape.n, shape.m)
		for _, tc := range wideSpecs {
			spec := tc.spec
			spec.K = 10
			b.Run(fmt.Sprintf("m%d/%s", shape.m, tc.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sources, acc, err := ListSources(in)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := Run(context.Background(), spec, sources, acc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// faultEnsemble is the fault-path workload: a tie-heavy n=1000, m=5 catalog,
// queried at k=10.
func faultEnsemble() []*ranking.PartialRanking {
	return randrank.CatalogEnsemble(rand.New(rand.NewSource(42)), 1000, 5, 8, 1.0, 1.0).Rankings
}

// faultModes name the source stacks faultSources builds: healthy list
// sources; 2% transient failures on every list, absorbed by retries; and
// list 0 dying on its second access, so the run rebuilds over the four
// survivors and finishes degraded.
var faultModes = []string{"healthy", "retry", "death"}

// faultSources builds one run's sources for a fault mode. Sources are
// stateful, so every run builds its own stack.
func faultSources(in []*ranking.PartialRanking, mode string) ([]faults.Source, *telemetry.AccessAccountant) {
	acc := telemetry.NewAccessAccountant(len(in))
	return chaosSources(in, acc, func(i int, s faults.Source) faults.Source {
		switch {
		case mode == "retry":
			s = faults.Inject(s, faults.Plan{Seed: 42 + int64(i), TransientRate: 0.02})
			pol := faults.DefaultRetryPolicy()
			pol.JitterSeed = 42
			pol.Sleeper = &faults.FakeSleeper{}
			return faults.WithRetry(s, pol, acc, i)
		case mode == "death" && i == 0:
			return faults.Inject(s, faults.Plan{DeathAfter: 1})
		}
		return s
	}), acc
}

// faultSpecs are the engines the fault-path benchmark runs, at k=10.
var faultSpecs = []Spec{
	{Algo: AlgoMedRank, K: 10, Policy: RoundRobin},
	{Algo: AlgoTA, K: 10},
	{Algo: AlgoNRA, K: 10},
	{Algo: AlgoCA, K: 10},
}

// TestFaultModes pins what each faultSources mode does to every engine of
// the fault-path benchmark: healthy runs retry nothing and lose nothing,
// retried runs absorb every transient and answer as the healthy run does,
// and death runs lose list 0 and answer degraded.
func TestFaultModes(t *testing.T) {
	in := faultEnsemble()
	for _, spec := range faultSpecs {
		results := make(map[string]*Result, len(faultModes))
		for _, mode := range faultModes {
			sources, acc := faultSources(in, mode)
			res, err := Run(context.Background(), spec, sources, acc)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Algo, mode, err)
			}
			results[mode] = res
		}
		healthy, retry, death := results["healthy"], results["retry"], results["death"]
		if healthy.Degraded != nil || healthy.Stats.Retried != 0 {
			t.Errorf("%s/healthy: degraded %+v, %d retries", spec.Algo, healthy.Degraded, healthy.Stats.Retried)
		}
		if retry.Degraded != nil || retry.Stats.Retried == 0 {
			t.Errorf("%s/retry: degraded %+v, %d retries; want no loss and some retries", spec.Algo, retry.Degraded, retry.Stats.Retried)
		}
		if !slices.Equal(retry.Winners, healthy.Winners) {
			t.Errorf("%s/retry: winners %v, healthy %v", spec.Algo, retry.Winners, healthy.Winners)
		}
		if death.Degraded == nil || !slices.Equal(death.Degraded.Lost, []int{0}) {
			t.Errorf("%s/death: degraded %+v, want list 0 lost", spec.Algo, death.Degraded)
		}
	}
}

// BenchmarkEnginesFaults prices the resilience layer: every engine on
// faultEnsemble over each fault mode's sources, so the retry wrapper and a
// mid-query death with its rebuild read against the healthy run.
func BenchmarkEnginesFaults(b *testing.B) {
	in := faultEnsemble()
	for _, spec := range faultSpecs {
		for _, mode := range faultModes {
			b.Run(string(spec.Algo)+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sources, acc := faultSources(in, mode)
					if _, err := Run(context.Background(), spec, sources, acc); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
