package aggregate

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/randrank"
	"repro/internal/ranking"
)

func benchEnsemble(n, m int, theta float64) []*ranking.PartialRanking {
	rng := rand.New(rand.NewSource(int64(n*31 + m)))
	in, _ := randrank.MallowsEnsemble(rng, n, m, theta)
	return in
}

func BenchmarkMedianScores(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		in := benchEnsemble(n, 7, 0.5)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MedianScores(in, LowerMedian); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOptimalPartialEngines(b *testing.B) {
	for _, n := range []int{200, 800, 3200} {
		rng := rand.New(rand.NewSource(int64(n)))
		f := make([]float64, n)
		for i := range f {
			f[i] = float64(rng.Intn(2*n)) / 2
		}
		b.Run(fmt.Sprintf("figure1/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := OptimalPartialFigure1(f); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("prefixsum/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := OptimalPartial(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHungarian(b *testing.B) {
	for _, n := range []int{50, 200} {
		in := benchEnsemble(n, 5, 0.5)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := FootruleOptimalFull(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBaselines(b *testing.B) {
	in := benchEnsemble(500, 5, 0.5)
	b.Run("borda", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Borda(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mc4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MarkovChain(in, MC4, MarkovChainOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("localkemeny", func(b *testing.B) {
		start, err := Borda(in)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := LocalKemenize(start, in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkKemenyOptimalDP(b *testing.B) {
	for _, n := range []int{10, 14, 18} {
		in := benchEnsemble(n, 5, 0.5)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := KemenyOptimalDP(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBestOfInputsDup scores every input as the candidate aggregate on
// a duplicate-heavy ensemble (4 distinct n=200 voters cloned out to m=24):
// the serial sweep, the parallel sweep, and the parallel sweep over a shared
// distance cache, where clones share their fingerprints and so hit.
func BenchmarkBestOfInputsDup(b *testing.B) {
	in := dupEnsemble(rand.New(rand.NewSource(42)), 200, 4, 24)
	ws := metrics.NewWorkspace()
	cached := metrics.Cached(cache.New(0), metrics.CacheIDKProf, metrics.KProfWS)
	for _, tc := range []struct {
		name     string
		d        metrics.DistanceWS
		parallel bool
	}{
		{"serial", metrics.KProfWS, false},
		{"parallel", metrics.KProfWS, true},
		{"parallel_cached", cached, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if tc.parallel {
					_, _, _, err = BestOfInputsParallel(in, tc.d)
				} else {
					_, _, _, err = BestOfInputsWith(ws, in, tc.d)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
