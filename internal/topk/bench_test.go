package topk

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

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
