package telemetry

import (
	"expvar"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. Increments are gated
// on Enabled(), so a disabled counter costs one atomic load and never
// allocates; reads always return whatever was recorded while enabled.
type Counter struct {
	v atomic.Int64
}

// Inc adds one when telemetry is enabled.
func (c *Counter) Inc() {
	if enabled.Load() {
		c.v.Add(1)
	}
}

// Add adds d when telemetry is enabled.
func (c *Counter) Add(d int64) {
	if enabled.Load() {
		c.v.Add(d)
	}
}

// ForceInc adds one regardless of Enabled(). Reserve it for facts operators
// must be able to count after the fact even when tracing was off —
// contained panics, dropped inputs, and the request, shed and ladder tallies
// rankserve's /stats reports; ordinary hot-path instruments stay gated so
// disabled telemetry stays free.
func (c *Counter) ForceInc() { c.v.Add(1) }

// ForceAdd adds d regardless of Enabled(); see ForceInc.
func (c *Counter) ForceAdd(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histBuckets is the fixed bucket count of a Histogram: bucket i holds
// observations v with bits.Len64(v) == i, i.e. exponential base-2 buckets
// [2^(i-1), 2^i). 65 buckets cover every non-negative int64.
const histBuckets = 65

// Histogram is a bounded, allocation-free histogram over non-negative int64
// observations (durations in nanoseconds, sizes, depths) with exponential
// base-2 buckets. Like Counter, observations are gated on Enabled().
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records v when telemetry is enabled. Negative values clamp to 0.
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.raiseMax(v)
}

func (h *Histogram) raiseMax(v int64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Merge adds o's observations into h bucket by bucket, so the series of one
// family can be summed over a label; buckets share their edges, so the sum
// is exact. Unlike Observe it is not gated: it adds up what was recorded.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	h.raiseMax(o.max.Load())
}

// NearestRank returns the 1-based rank of the q-quantile among n ordered
// observations: ceil(q·n), at least 1 and at most n. Histogram.Quantile,
// QuantileFromBuckets and rankload's exact client-side quantiles all use
// it, so every percentile the repo reports follows one rule.
func NearestRank(q float64, n int64) int64 {
	return min(max(int64(math.Ceil(q*float64(n))), 1), n)
}

// Quantile returns an upper bound on the q-quantile (q in [0, 1]) of the
// recorded observations: the upper edge of the bucket holding the
// NearestRank observation, clamped to the observed maximum. Returns 0 when
// empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	need := NearestRank(q, total)
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= need {
			hi := int64(1)<<uint(i) - 1 // upper edge of bucket i
			if m := h.max.Load(); hi > m {
				hi = m
			}
			return hi
		}
	}
	return h.max.Load()
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	P50   int64   `json:"p50"`
	P90   int64   `json:"p90"`
	P99   int64   `json:"p99"`
}

// Snapshot returns the histogram's current summary.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	return s
}

// Registry is the one metrics store: named families of counters, gauges and
// histograms, each family with fixed label keys (see labels.go). An
// unlabeled instrument is the single series of a family with no label keys;
// Counter and Histogram get-or-create those by name, so independent
// packages can bind package-level instrument variables at init time and
// share the process-wide view.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*vec[Counter]
	gauges   map[string]*vec[Gauge]
	hists    map[string]*vec[Histogram]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*vec[Counter]),
		gauges:   make(map[string]*vec[Gauge]),
		hists:    make(map[string]*vec[Histogram]),
	}
}

// Default is the process-wide registry used by the package-level Counter and
// Histogram helpers and by PublishExpvar.
var Default = NewRegistry()

// Counter returns the registry's unlabeled counter with the given name,
// creating it on first use. Its exposition help text is generated from the
// name.
func (r *Registry) Counter(name string) *Counter {
	return family(r, r.counters, name, "", nil).with()
}

// Histogram returns the registry's unlabeled histogram with the given name,
// creating it on first use; see Counter.
func (r *Registry) Histogram(name string) *Histogram {
	return family(r, r.hists, name, "", nil).with()
}

// GetCounter is Counter on the default registry.
func GetCounter(name string) *Counter { return Default.Counter(name) }

// GetHistogram is Histogram on the default registry.
func GetHistogram(name string) *Histogram { return Default.Histogram(name) }

// Snapshot is a point-in-time JSON-marshalable view of a registry's counters
// and histograms, keyed by family name (plus the rendered label set for a
// labeled series), zero-valued series omitted for compactness.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Histograms: map[string]HistogramSnapshot{}}
	for _, v := range families(r, r.counters) {
		v.Each(func(values []string, c *Counter) {
			if n := c.Value(); n != 0 {
				s.Counters[v.name+formatLabels(v.keys, values)] = n
			}
		})
	}
	for _, v := range families(r, r.hists) {
		v.Each(func(values []string, h *Histogram) {
			if hs := h.Snapshot(); hs.Count != 0 {
				s.Histograms[v.name+formatLabels(v.keys, values)] = hs
			}
		})
	}
	return s
}

// Reset zeroes every counter and histogram in the registry (gauges track
// live state and keep their values). Intended for tests and for per-run
// stats in command-line tools; instruments stay registered so bound package
// variables remain valid.
func (r *Registry) Reset() {
	for _, v := range families(r, r.counters) {
		v.Each(func(_ []string, c *Counter) { c.v.Store(0) })
	}
	for _, v := range families(r, r.hists) {
		v.Each(func(_ []string, h *Histogram) {
			h.count.Store(0)
			h.sum.Store(0)
			h.max.Store(0)
			for i := range h.buckets {
				h.buckets[i].Store(0)
			}
		})
	}
}

var publishOnce sync.Once

// PublishExpvar publishes the default registry (and the trace ring buffer)
// under the expvar name "rankties", so any net/http server with the expvar
// handler mounted exposes the live snapshot at /debug/vars. Safe to call
// more than once; only the first call publishes, since expvar panics on a
// duplicate name.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("rankties", expvar.Func(func() any {
			return struct {
				Telemetry Snapshot `json:"telemetry"`
				Trace     []Event  `json:"trace"`
			}{Default.Snapshot(), TraceEvents()}
		}))
	})
}
