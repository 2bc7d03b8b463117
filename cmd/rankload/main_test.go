package main

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestParseMix(t *testing.T) {
	w, err := parseMix("topk=6,resilient=1,agg=2,submit=1,stats=1")
	if err != nil {
		t.Fatal(err)
	}
	if w["topk"] != 6 || w["agg"] != 2 || w["stats"] != 1 {
		t.Errorf("weights = %v", w)
	}
	for _, bad := range []string{"", "topk", "topk=x", "topk=-1", "nosuch=1", "topk=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
	// Zero-weight entries are fine as long as something has weight.
	if _, err := parseMix("topk=0,agg=3"); err != nil {
		t.Errorf("mixed zero weight rejected: %v", err)
	}
}

func TestMixPickRespectsWeights(t *testing.T) {
	w, err := parseMix("topk=3,stats=1")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	const draws = 4000
	for i := 0; i < draws; i++ {
		counts[w.pick(rng)]++
	}
	if counts["topk"]+counts["stats"] != draws {
		t.Fatalf("picked ops outside the mix: %v", counts)
	}
	// 3:1 weighting: topk should land near 75%.
	frac := float64(counts["topk"]) / draws
	if frac < 0.70 || frac > 0.80 {
		t.Errorf("topk fraction = %.3f, want ~0.75", frac)
	}
}

func TestQuantileNs(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.95, 100}, {0.99, 100}, {0.10, 10}} {
		if got := quantileNs(sorted, tc.q); got != tc.want {
			t.Errorf("quantileNs(%.2f) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := quantileNs(nil, 0.5); got != 0 {
		t.Errorf("quantileNs(nil) = %d, want 0", got)
	}
}

// One quantile rule — nearest rank, ceil(q·n) — for the client's exact
// quantiles, the server's in-process histogram (its bucket's upper edge,
// clamped to the observed max, also after summing two series) and the
// scrape-side bucket reading, so /stats and rankload -scrape agree.
func TestQuantileRule(t *testing.T) {
	seq := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i + 1)
		}
		return out
	}
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	for _, tc := range []struct {
		name                    string
		samples                 []int64 // sorted
		q                       float64
		exact, hist, fromBucket int64
	}{
		{"tail outlier p95", append([]int64{1, 1, 1, 1, 1, 1, 1, 1, 1}, 1000), 0.95, 1000, 1000, 1023},
		{"tail outlier p99", append([]int64{1, 1, 1, 1, 1, 1, 1, 1, 1}, 1000), 0.99, 1000, 1000, 1023},
		{"p95 of 31 is the 30th", seq(31), 0.95, 30, 31, 31},
		{"p50 of 10", seq(10), 0.50, 5, 7, 7},
		{"p99 of 100", seq(100), 0.99, 99, 100, 127},
		{"p0 is the minimum", seq(10), 0, 1, 1, 1},
	} {
		if got := quantileNs(tc.samples, tc.q); got != tc.exact {
			t.Errorf("%s: quantileNs = %d, want %d", tc.name, got, tc.exact)
		}
		r := telemetry.NewRegistry()
		h, halves := r.Histogram("lat"), [2]*telemetry.Histogram{r.Histogram("a"), r.Histogram("b")}
		for i, v := range tc.samples {
			h.Observe(v)
			halves[i%2].Observe(v)
		}
		merged := new(telemetry.Histogram)
		merged.Merge(halves[0])
		merged.Merge(halves[1])
		if got, gotMerged := h.Quantile(tc.q), merged.Quantile(tc.q); got != tc.hist || gotMerged != tc.hist {
			t.Errorf("%s: Histogram.Quantile = %d, merged %d, want %d", tc.name, got, gotMerged, tc.hist)
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b, ""); err != nil {
			t.Fatal(err)
		}
		exp, _ := telemetry.ParseExposition(strings.NewReader(b.String()))
		buckets, _, _, _ := exp.Histogram("lat", nil)
		if got := telemetry.QuantileFromBuckets(buckets, tc.q); got != float64(tc.fromBucket) {
			t.Errorf("%s: QuantileFromBuckets = %v, want %d", tc.name, got, tc.fromBucket)
		}
	}
}

// The scrape reduction sums per-tenant latency series that the server
// renders only up to each series' highest non-empty bucket; a tenant with
// only fast requests must still count at the slower tenant's edges.
func TestServerMetricsSumsTruncatedSeries(t *testing.T) {
	was := telemetry.Enabled()
	telemetry.Enable()
	defer func() {
		if !was {
			telemetry.Disable()
		}
	}()
	r := telemetry.NewRegistry()
	lat := r.HistogramVec("rankserve_request_latency_ns", "Latency.", "tenant", "endpoint")
	for _, v := range []int64{100, 100, 100, 1000} {
		lat.With("slow", "topk").Observe(v)
	}
	for i := 0; i < 20; i++ {
		lat.With("fast", "topk").Observe(5) // rendered up to le="7" only
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b, ""); err != nil {
		t.Fatal(err)
	}
	sm := serverMetricsFrom([]byte(b.String()), 1)
	// 24 observations: the 23rd (p95) is a 100, in the le="127" bucket.
	if got := sm.Endpoints["topk"]; got.Count != 24 || got.P50Ns != 7 || got.P95Ns != 127 || got.P99Ns != 1023 {
		t.Errorf("topk server metrics = %+v, want count 24, p50 7, p95 127, p99 1023", got)
	}
}

func TestSummarize(t *testing.T) {
	lat := []int64{30, 10, 20, 40} // unsorted on purpose
	r := summarize(lat, 1, 2, 2*time.Second)
	if r.Count != 4 || r.Errors != 1 || r.Dropped != 2 {
		t.Errorf("tallies = %+v", r)
	}
	if r.MeanNs != 25 || r.MaxNs != 40 || r.P50Ns != 20 {
		t.Errorf("stats = %+v", r)
	}
	if r.PerSec != 2 {
		t.Errorf("per_sec = %g, want 2", r.PerSec)
	}
	empty := summarize(nil, 0, 3, time.Second)
	if empty.Count != 0 || empty.Dropped != 3 || empty.MeanNs != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestDomainNames(t *testing.T) {
	names := domainNames(3)
	if len(names) != 3 || names[0] != "e000" || names[2] != "e002" {
		t.Errorf("domainNames(3) = %v", names)
	}
}

func TestRunValidatesFlags(t *testing.T) {
	for _, args := range [][]string{
		{},                          // -addr missing
		{"-addr", "x", "-mix", "="}, // bad mix
		{"-addr", "x", "-clients", "0"},
		{"-addr", "x", "-n", "1"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
