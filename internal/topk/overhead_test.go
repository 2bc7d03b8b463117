package topk

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/randrank"
	"repro/internal/telemetry"
)

// doneCounter is a context that counts calls to Done.
type doneCounter struct {
	context.Context
	calls atomic.Int64
}

func (c *doneCounter) Done() <-chan struct{} {
	c.calls.Add(1)
	return c.Context.Done()
}

// TestEngineDoneCallsBoundedInN pins the engines' context-check cost: every
// call to ctx.Done() walks the whole context chain, so each drive loop reads
// the channel once per run and then polls it before every access. Each
// engine runs on the same catalog shape at n=1000 and n=4000 (it reads
// several times as many entries at the larger n) with telemetry enabled, so
// the span and pprof-label layers sit between the engine and the counting
// root; the Done call count must be small and the same at both sizes.
func TestEngineDoneCallsBoundedInN(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	const m, k, maxCalls = 8, 10, 4
	for _, spec := range []Spec{
		{Algo: AlgoMedRank, K: k, Policy: GlobalMerge},
		{Algo: AlgoTA, K: k},
		{Algo: AlgoNRA, K: k},
		{Algo: AlgoCA, K: k, CostRatio: 10},
	} {
		measure := func(n int) (calls int64, read int) {
			in := randrank.CatalogEnsemble(rand.New(rand.NewSource(2)), n, m, 8, 1.0, 0.05).Rankings
			sources, acc, err := ListSources(in)
			if err != nil {
				t.Fatal(err)
			}
			ctx := &doneCounter{Context: context.Background()}
			res, err := Run(ctx, spec, sources, acc)
			if err != nil {
				t.Fatal(err)
			}
			return ctx.calls.Load(), res.Stats.Total + res.Stats.Random
		}
		small, readSmall := measure(1000)
		large, readLarge := measure(4000)
		t.Logf("%s: %d Done calls reading %d entries at n=1000, %d reading %d at n=4000",
			spec.Algo, small, readSmall, large, readLarge)
		if readLarge < 2*readSmall {
			t.Fatalf("%s: the n=4000 run reads %d entries, not at least twice the n=1000 run's %d", spec.Algo, readLarge, readSmall)
		}
		if small != large || large > maxCalls {
			t.Errorf("%s: %d Done calls at n=1000 and %d at n=4000; want the same count, at most %d", spec.Algo, small, large, maxCalls)
		}
	}
}

// TestUnsampledTracingOverhead is the tracing layer's cost budget: with
// telemetry enabled but no sampled trace in the context, the path every
// unsampled production request takes, a MedRankOver run (healthy list
// sources on faultEnsemble, RoundRobin, k=10) may cost at most 5% more than
// with telemetry disabled. The guard times pairs of short batches, one per
// mode, in alternating order so machine drift lands on both sides of a
// pair. Every batch starts alike: a collection, then untimed runs, because
// the first runs after a collection are slower and, with no collection
// inside a pair, the second batch would pay for the first one's garbage.
// The budget holds the median of the per-pair overheads.
func TestUnsampledTracingOverhead(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("timing guard: needs an uninstrumented, full-length run")
	}
	was := telemetry.Enabled()
	defer func() {
		if was {
			telemetry.Enable()
		} else {
			telemetry.Disable()
		}
	}()
	// A batch allocates about 2 MB, which runtime.GC reclaims before the next.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const pairs, warmOps, batchOps, budget = 401, 2, 8, 0.05
	in := faultEnsemble()
	ctx := context.Background()
	run := func() {
		sources, acc := faultSources(in, "healthy")
		if _, err := MedRankOver(ctx, sources, 10, RoundRobin, acc); err != nil {
			t.Fatal(err)
		}
	}
	batch := func(enabled bool) time.Duration {
		if enabled {
			telemetry.Enable()
		} else {
			telemetry.Disable()
		}
		runtime.GC()
		for i := 0; i < warmOps; i++ {
			run()
		}
		start := time.Now()
		for i := 0; i < batchOps; i++ {
			run()
		}
		return time.Since(start)
	}
	overheads := make([]float64, pairs)
	for p := range overheads {
		var off, on time.Duration
		if p%2 == 0 {
			off, on = batch(false), batch(true)
		} else {
			on, off = batch(true), batch(false)
		}
		overheads[p] = float64(on)/float64(off) - 1
	}
	slices.Sort(overheads)
	median := overheads[pairs/2]
	t.Logf("unsampled tracing overhead: median %+.4f over %d pairs (quartiles %+.4f, %+.4f)",
		median, pairs, overheads[pairs/4], overheads[3*pairs/4])
	if median >= budget {
		t.Errorf("unsampled tracing costs %+.2f%% per MedRankOver run, budget %.0f%%", 100*median, 100*budget)
	}
}
