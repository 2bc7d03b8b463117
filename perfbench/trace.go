package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/aggregate"
	"repro/internal/cache"
	"repro/internal/db"
	"repro/internal/faults"
	"repro/internal/guard"
	"repro/internal/metrics"
	"repro/internal/ranking"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/topk"
)

// The traced run (--trace 1) takes a fixed sample of a workload's ops and
// replays each op serially at each layer, from the benchmark's own code,
// under one trace ID: the request over loopback to rankserve (http), the
// same request through an identically set-up in-process service handler
// (service), and then the public calls of the layer that did the op's work
// (topk, aggregate with the cache and metrics calls it makes, ranking, or
// db). A layer's self time is its replay's span minus the replay span of
// the layer below it for the same op, so the self times of one op sum to
// its top span. The sample is replayed once more at the top layer alone,
// without spans or allocation reads; the difference is the tracing
// overhead.
//
// Replays run on one CPU: the benchmark process and the rankserve children
// of a traced run get GOMAXPROCS=1. The parallel kernels then run their work
// serially, so a layer's time is the work it does rather than a wall time
// that depends on how well its workers overlapped, and the distance calls
// inside an aggregate kernel never overlap each other.

// Sample sizes of the traced run.
const (
	traceServeTopK  = 96
	traceServeMixed = 240
	traceDBQueries  = 160
)

// perLayer lists every per-layer figure with its unit. Every traced run
// prints all of them, and a layer the workload bypasses reads 0. Only those
// marked reported go into the result (and BENCHMARK.json): the shares and
// counts, which read 0 honestly where a layer is bypassed, and the times
// every workload measures. A layer's call times, which exist on one or two
// workloads only, are printed.
var perLayer = []struct {
	name, unit string
	reported   bool
}{
	{"http.topk_self_ms", "ms", false}, {"http.aggregate_self_ms", "ms", false}, {"http.write_self_ms", "ms", false},
	{"http.self_share", "ratio", true},
	{"service.topk_self_ms", "ms", false}, {"service.aggregate_self_ms", "ms", false}, {"service.write_ms", "ms", false},
	{"service.allocs_per_req", "count", true}, {"service.resp_bytes", "B", true}, {"service.self_share", "ratio", true},
	{"topk.medrank_ms", "ms", true}, {"topk.ta_ms", "ms", true}, {"topk.nra_ms", "ms", true}, {"topk.ca_ms", "ms", true},
	{"topk.over_ms", "ms", false},
	{"topk.allocs_per_query", "count", true}, {"topk.seq_accesses", "count", true}, {"topk.random_accesses", "count", true},
	{"topk.middleware_cost", "count", true}, {"topk.cost_vs_bound", "ratio", true}, {"topk.buffer_peak", "count", true},
	{"topk.share", "ratio", true},
	{"aggregate.median_scores_ms", "ms", false}, {"aggregate.median_topk_ms", "ms", false},
	{"aggregate.sum_distance_ms", "ms", false}, {"aggregate.best_of_inputs_ms", "ms", false},
	{"aggregate.kemenize_ms", "ms", false}, {"aggregate.share", "ratio", true},
	{"metrics.calls_per_aggregate", "count", true}, {"metrics.kprof_us", "us", false}, {"metrics.fprof_us", "us", false},
	{"metrics.khaus_us", "us", false}, {"metrics.fhaus_us", "us", false}, {"metrics.allocs_per_call", "count", true},
	{"metrics.share", "ratio", true},
	{"cache.hit_rate", "ratio", true}, {"cache.server_hit_rate", "ratio", true}, {"cache.evictions", "count", true},
	{"cache.lookup_us", "us", false}, {"cache.share", "ratio", true},
	{"ranking.parse_ms", "ms", false}, {"ranking.parse_mb_s", "MB/s", false}, {"ranking.share", "ratio", true},
	{"db.query_ms", "ms", false}, {"db.index_scan_ms", "ms", false}, {"db.filter_ms", "ms", false},
	{"db.self_ms", "ms", false}, {"db.share", "ratio", true},
	{"trace.share_sum", "ratio", true}, {"trace.overhead_share", "ratio", true},
}

// shareTolerance bounds how far the layer shares of a traced run may sum
// from 1. Self times telescope, so only float rounding separates them.
const shareTolerance = 1e-6

// layerStats accumulates per-layer observations across the sample.
type layerStats struct {
	vals map[string][]float64
}

func newLayerStats() *layerStats {
	return &layerStats{vals: map[string][]float64{}}
}

func (l *layerStats) add(name string, v float64) { l.vals[name] = append(l.vals[name], v) }

// finish prints every per-layer figure, the mean of its observations or 0
// when the workload made none, and reports those marked reported.
func (l *layerStats) finish(rep *report) {
	for _, m := range perLayer {
		v := mean(l.vals[m.name])
		if m.reported {
			rep.add(m.name, v, m.unit, len(l.vals[m.name]), "")
		} else {
			printMetric(m.name, v, m.unit, len(l.vals[m.name]), "(printed only)")
		}
	}
}

// chains names the layers of each op kind, top first.
func chainFor(o *op, top string) []string {
	switch o.kind {
	case "topk":
		if top == "db" {
			return []string{"db", "topk"}
		}
		return []string{"http", "service", "topk"}
	case "aggregate":
		return []string{"http", "service", "aggregate", "cache", "metrics"}
	}
	return []string{"http", "service", "ranking"}
}

// shares computes each layer's share of the summed top spans and checks
// the replay order and that the shares sum to 1.
func shares(ls *layerStats, spans []Span, ops []*op, top string) error {
	if err := checkReplayOrder(spans, func(tr int) []string { return chainFor(ops[tr], top) }); err != nil {
		return fmt.Errorf("replay order: %w", err)
	}
	byTrace := map[int][]Span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	selfSum := map[string]time.Duration{}
	var topSum time.Duration
	for tr, o := range ops {
		chain := chainFor(o, top)
		self := layerSelf(byTrace[tr], chain)
		for i, layer := range chain {
			selfSum[layer] += self[i]
			topSum += self[i]
			switch {
			case layer == "http" || layer == "service" && !o.write():
				ls.add(layer+"."+o.group()+"_self_ms", ms(self[i]))
			case layer == "db":
				ls.add("db.self_ms", ms(self[i]))
			}
		}
	}
	names := map[string]string{"http": "http.self_share", "service": "service.self_share", "db": "db.share"}
	var sum float64
	for layer, d := range selfSum {
		name, ok := names[layer]
		if !ok {
			name = layer + ".share"
		}
		sh := ratio(float64(d), float64(topSum))
		ls.add(name, sh)
		sum += sh
	}
	ls.add("trace.share_sum", sum)
	fmt.Printf("layer shares sum to %.9f of the top spans (tolerance %g)\n", sum, shareTolerance)
	if math.Abs(sum-1) > shareTolerance {
		return fmt.Errorf("layer shares sum to %v, not 1", sum)
	}
	return nil
}

// overhead reports the tracing overhead at the top layer: the median over
// the sample's ops of how much longer the op took in the traced pass than in
// the untraced one, relative to the untraced time.
func overhead(ls *layerStats, traced, untraced []time.Duration) {
	rel := make([]float64, len(traced))
	var sumT, sumU time.Duration
	for i := range traced {
		rel[i] = ratio(float64(traced[i]-untraced[i]), float64(untraced[i]))
		sumT += traced[i]
		sumU += untraced[i]
	}
	ls.add("trace.overhead_share", median(rel))
	fmt.Printf("top layer: %d ops, untraced %.3f ms, traced %.3f ms, median overhead per op %.4f\n",
		len(traced), ms(sumU), ms(sumT), median(rel))
}

// engineRun replays one top-k query on the engines directly. costRatio is the
// effective cR/cS cost ratio, as the service and db resolve it.
func engineRun(ctx context.Context, algo string, rs []*ranking.PartialRanking, k int, policy topk.Policy) (*topk.Result, int, error) {
	switch algo {
	case "ta":
		res, err := topk.ThresholdTopKContext(ctx, rs, k)
		return res, db.DefaultCostRatio, err
	case "nra":
		res, err := topk.NRAContext(ctx, rs, k)
		return res, 0, err
	case "ca":
		res, err := topk.CAContext(ctx, rs, k, db.DefaultCostRatio)
		return res, db.DefaultCostRatio, err
	}
	res, err := topk.MedRankContext(ctx, rs, k, policy)
	return res, 0, err
}

// resilientRun replays a resilient request the way the service runs it:
// every list behind the chaos injector and the default retry policy.
func resilientRun(ctx context.Context, o *op, rs []*ranking.PartialRanking) (*topk.Result, int, error) {
	acc := telemetry.NewAccessAccountant(len(rs))
	srcs := make([]faults.Source, len(rs))
	for i, pr := range rs {
		src := faults.Inject(topk.NewListSource(pr, acc, i), faults.Plan{Seed: o.chaosSeed + int64(i), DeathRate: topkDeathRate})
		srcs[i] = faults.WithRetry(src, faults.DefaultRetryPolicy(), acc, i)
	}
	switch o.algo {
	case "ta":
		res, err := topk.ThresholdTopKOver(ctx, srcs, o.k, acc)
		return res, db.DefaultCostRatio, err
	case "nra":
		res, err := topk.NRAOver(ctx, srcs, o.k, acc)
		return res, 0, err
	case "ca":
		res, err := topk.CAOver(ctx, srcs, o.k, db.DefaultCostRatio, acc)
		return res, db.DefaultCostRatio, err
	}
	res, err := topk.MedRankOver(ctx, srcs, o.k, topk.GlobalMerge, acc)
	return res, 0, err
}

// recordEngine adds one engine replay's counts: accesses, FLN middleware
// cost at (1, costRatio), and the cost certificate over the lists the answer
// aggregates, as the share of the spent cost a lower bound says was needed.
func recordEngine(ls *layerStats, res *topk.Result, costRatio int, rs []*ranking.PartialRanking, allocs uint64) {
	ls.add("topk.allocs_per_query", float64(allocs))
	ls.add("topk.seq_accesses", float64(res.Stats.Total))
	ls.add("topk.random_accesses", float64(res.Stats.Random))
	cost := res.Stats.MiddlewareCost(1, costRatio)
	ls.add("topk.middleware_cost", float64(cost))
	live := rs
	if res.Degraded != nil {
		lost := map[int]bool{}
		for _, l := range res.Degraded.Lost {
			lost[l] = true
		}
		live = nil
		for i, r := range rs {
			if !lost[i] {
				live = append(live, r)
			}
		}
	}
	bound := topk.CertificateLowerBoundCost(live, res.Winners, 1, costRatio)
	ls.add("topk.cost_vs_bound", ratio(float64(bound), float64(cost)))
	if res.Intervals2 != nil {
		ls.add("topk.buffer_peak", float64(res.BufferPeak))
	}
}

// checkEngine judges an engine replay's answer with the oracle.
func checkEngine(res *topk.Result, med4 []int64, k int, algo string) error {
	got := make([]float64, len(res.Medians2))
	for i, m := range res.Medians2 {
		got[i] = float64(m) / 2
	}
	return checkWinners(res.Winners, got, med4, k, exactAlgo(algo))
}

// distTracer is the aggregate layer's distance function: metrics.Cached
// over a benchmark-owned cache, around the metric kernel. Each distance
// call opens a cache span and, when the cache misses, a metrics span around
// the kernel. Replays run on one CPU, so the calls never overlap and the
// cache's own counters repeat exactly from run to run.
type distTracer struct {
	rec   *Recorder
	cache *cache.Cache

	mu    sync.Mutex
	calls int
	pairs map[string][][2]*ranking.PartialRanking // missed pairs, for the allocation count
}

func newDistTracer(rec *Recorder) *distTracer {
	return &distTracer{rec: rec, cache: cache.New(0), pairs: map[string][][2]*ranking.PartialRanking{}}
}

var metricIDs = map[string]uint32{"kprof": metrics.CacheIDKProf, "fprof": metrics.CacheIDFProf,
	"khaus": metrics.CacheIDKHaus, "fhaus": metrics.CacheIDFHaus}

// distance returns the traced distance for one aggregate call whose span is
// parent.
func (t *distTracer) distance(trace, parent int, metric string) metrics.DistanceWS {
	base := metricWS(metric)
	cached := metrics.Cached(t.cache, metricIDs[metric], func(ws *metrics.Workspace, a, b *ranking.PartialRanking) (float64, error) {
		mid := t.rec.Begin(trace, parent, "metrics", metric)
		v, err := base(ws, a, b)
		t.rec.Finish(mid)
		t.mu.Lock()
		t.calls++
		if len(t.pairs[metric]) < 256 {
			t.pairs[metric] = append(t.pairs[metric], [2]*ranking.PartialRanking{a, b})
		}
		t.mu.Unlock()
		return v, err
	})
	return func(ws *metrics.Workspace, a, b *ranking.PartialRanking) (float64, error) {
		cid := t.rec.Begin(trace, parent, "cache", metric)
		v, err := cached(ws, a, b)
		t.rec.Finish(cid)
		return v, err
	}
}

// aggregateReplay runs the service's aggregation sequence on the parsed
// catalog, each public call in its own span.
func aggregateReplay(rec *Recorder, dt *distTracer, trace, parent int, o *op, rs []*ranking.PartialRanking) error {
	var err error
	call := func(name string, f func(id int) error) {
		if err != nil {
			return
		}
		id := rec.Begin(trace, parent, "aggregate", name)
		err = f(id)
		rec.Finish(id)
	}
	n := rs[0].N()
	var med, kem *ranking.PartialRanking
	call("median_scores", func(int) error {
		_, e := aggregate.MedianScores(rs, aggregate.LowerMedian)
		return e
	})
	call("median_topk", func(int) error {
		var e error
		med, e = aggregate.MedianTopK(rs, n)
		return e
	})
	call("sum_distance", func(id int) error {
		_, e := aggregate.SumDistanceParallel(med, rs, dt.distance(trace, id, o.metric))
		return e
	})
	call("best_of_inputs", func(id int) error {
		_, _, _, e := aggregate.BestOfInputsParallel(rs, dt.distance(trace, id, o.metric))
		return e
	})
	call("kemenize", func(int) error {
		var e error
		kem, e = aggregate.LocalKemenize(med, rs)
		return e
	})
	call("sum_distance", func(id int) error {
		_, e := aggregate.SumDistanceParallel(kem, rs, dt.distance(trace, id, o.metric))
		return e
	})
	return err
}

func traceServe(rep *report, workload string, seed int64, bin string) error {
	setup := newServeSetup(workload, seed)
	size := traceServeTopK
	if workload == "serve-mixed" {
		size = traceServeMixed
	}
	ops := make([]*op, size)
	for i := range ops {
		ops[i] = setup.next(0)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	or := newOracle()
	ctx := context.Background()
	cl := newClient(1)
	defer cl.CloseIdleConnections()
	check := func(o *op, body []byte, err error) {
		rep.res.Attempted++
		if err == nil {
			err = or.checkServe(o, body)
		}
		if err != nil {
			rep.res.Failed++
			fmt.Printf("%s failed: %v\n", o.class(), err)
		}
	}

	// Untraced pass: the top layer alone, on its own freshly set-up server.
	srv, _, err := startAndIngest(bin, setup.cats, "GOMAXPROCS=1")
	if err != nil {
		return err
	}
	untraced := make([]time.Duration, len(ops))
	for i, o := range ops {
		t0 := time.Now()
		body, err := do(ctx, cl, o.method(), srv.base+o.path(), o.body)
		untraced[i] = time.Since(t0)
		check(o, body, err)
	}
	srv.stop()

	// Traced pass.
	srv, _, err = startAndIngest(bin, setup.cats, "GOMAXPROCS=1")
	if err != nil {
		return err
	}
	defer srv.stop()
	telemetry.Enable() // rankserve runs with gated telemetry on; mirror it in process
	// rankserve's flag defaults: every other Config field at its zero value
	// selects the same default the flag does.
	svc := service.New(service.Config{TraceSampleRate: 0.1})
	h := svc.Handler()
	ls := newLayerStats()
	var parseBytes int
	var parseTime time.Duration
	parse := func(body []byte) ([]*ranking.PartialRanking, error) {
		t0 := time.Now()
		rs, _, _, err := ranking.ParseLinesWith(bytes.NewReader(body), ranking.ParseOptions{Limits: guard.DefaultLimits()})
		d := time.Since(t0)
		parseBytes += len(body)
		parseTime += d
		ls.add("ranking.parse_ms", ms(d))
		return rs, err
	}
	for _, c := range setup.cats {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("PUT", c.path(), bytes.NewReader(c.body)))
		if w.Code != 200 {
			return fmt.Errorf("in-process ingest of %s: status %d", c.path(), w.Code)
		}
		if _, err := parse(c.body); err != nil {
			return err
		}
	}

	rec := NewRecorder()
	dt := newDistTracer(rec)
	traced := make([]time.Duration, len(ops))
	for tr, o := range ops {
		var body []byte
		var herr error
		runtime.GC() // as Recorder.Time does before the replays below
		hid := rec.Begin(tr, -1, "http", o.kind)
		body, herr = do(ctx, cl, o.method(), srv.base+o.path(), o.body)
		rec.Finish(hid)
		traced[tr] = rec.Get(hid).Dur()
		check(o, body, herr)

		w := httptest.NewRecorder()
		sid := rec.Time(tr, hid, "service", o.kind, func() {
			h.ServeHTTP(w, httptest.NewRequest(o.method(), o.path(), bytes.NewReader(o.body)))
		})
		sp := rec.Get(sid)
		ls.add("service.allocs_per_req", float64(sp.Allocs))
		ls.add("service.resp_bytes", float64(w.Body.Len()))
		if w.Code/100 != 2 {
			check(o, nil, fmt.Errorf("in-process service: status %d: %s", w.Code, bytes.TrimSpace(w.Body.Bytes())))
		} else {
			check(o, w.Body.Bytes(), nil)
		}

		switch o.kind {
		case "append", "put":
			ls.add("service.write_ms", ms(sp.Dur()))
			var perr error
			rec.Time(tr, sid, "ranking", "parse_lines", func() { _, perr = parse(o.body) })
			if perr != nil {
				return perr
			}
		case "aggregate":
			p, err := or.parsed(o.state)
			if err != nil {
				return err
			}
			runtime.GC()
			aid := rec.Begin(tr, sid, "aggregate", o.metric)
			err = aggregateReplay(rec, dt, tr, aid, o, p.rankings)
			rec.Finish(aid)
			if err != nil {
				return err
			}
		case "topk":
			p, err := or.parsed(o.state)
			if err != nil {
				return err
			}
			var res *topk.Result
			var costRatio int
			var eerr error
			name := o.algo
			if o.resilient {
				name = "over"
			}
			eid := rec.Time(tr, sid, "topk", name, func() {
				if o.resilient {
					res, costRatio, eerr = resilientRun(ctx, o, p.rankings)
				} else {
					res, costRatio, eerr = engineRun(ctx, o.algo, p.rankings, o.k, topk.GlobalMerge)
				}
			})
			if eerr != nil {
				return fmt.Errorf("engine replay: %w", eerr)
			}
			esp := rec.Get(eid)
			ls.add("topk."+name+"_ms", ms(esp.Dur()))
			recordEngine(ls, res, costRatio, p.rankings, esp.Allocs)
			var lost []int
			if res.Degraded != nil {
				lost = res.Degraded.Lost
			}
			med4, err := p.medians4(lost)
			if err != nil {
				return err
			}
			rep.res.Attempted++
			if err := checkEngine(res, med4, o.k, o.algo); err != nil {
				rep.res.Failed++
				fmt.Printf("%s engine replay failed: %v\n", o.class(), err)
			}
		}
	}
	spans := rec.Spans()
	if err := shares(ls, spans, ops, "http"); err != nil {
		return err
	}
	overhead(ls, traced, untraced)
	if parseTime > 0 {
		ls.add("ranking.parse_mb_s", float64(parseBytes)/1e6/parseTime.Seconds())
	}
	if err := distanceStats(ls, dt, spans, ops); err != nil {
		return err
	}
	if st := dt.cache.Stats(); st.Hits+st.Misses > 0 {
		// The server's cache saw the same distance calls in the same order,
		// so its counters must equal the replay's.
		hits, misses, err := serverCache(cl, srv.base)
		if err != nil {
			return err
		}
		ls.add("cache.server_hit_rate", ratio(float64(hits), float64(hits+misses)))
		fmt.Printf("distance cache: benchmark replay %d hits / %d misses, server /stats %d hits / %d misses\n",
			st.Hits, st.Misses, hits, misses)
		rep.res.Attempted++
		if hits != st.Hits || misses != st.Misses {
			rep.res.Failed++
			fmt.Println("distance cache: the server's counters differ from the replay's")
		}
	}
	ls.finish(rep)
	return nil
}

// distanceStats derives the cache and metrics layer figures of the
// aggregate replays.
func distanceStats(ls *layerStats, dt *distTracer, spans []Span, ops []*op) error {
	aggs := 0
	for _, o := range ops {
		if o.kind == "aggregate" {
			aggs++
		}
	}
	if aggs == 0 {
		return nil
	}
	var cacheTime, metricTime time.Duration
	lookups := 0
	for _, s := range spans {
		switch s.Layer {
		case "cache":
			cacheTime += s.Dur()
			lookups++
		case "metrics":
			metricTime += s.Dur()
			ls.add("metrics."+s.Name+"_us", us(s.Dur()))
		case "aggregate":
			if s.Parent >= 0 && spans[s.Parent].Layer == "aggregate" {
				ls.add("aggregate."+s.Name+"_ms", ms(s.Dur()))
			}
		}
	}
	st := dt.cache.Stats()
	ls.add("metrics.calls_per_aggregate", float64(dt.calls)/float64(aggs))
	ls.add("cache.hit_rate", st.HitRate())
	ls.add("cache.evictions", float64(st.Evictions))
	ls.add("cache.lookup_us", us(cacheTime-metricTime)/float64(lookups))
	fmt.Printf("distance calls: %d lookups, %d cache misses, %d metric calls\n", lookups, st.Misses, dt.calls)

	// Allocations per metric call, serially, on the pairs the replay missed.
	ws := metrics.NewWorkspace()
	var before, after runtime.MemStats
	n := 0
	runtime.ReadMemStats(&before)
	for m, pairs := range dt.pairs {
		f := metricWS(m)
		for _, p := range pairs {
			if _, err := f(ws, p[0], p[1]); err != nil {
				return err
			}
			n++
		}
	}
	runtime.ReadMemStats(&after)
	ls.add("metrics.allocs_per_call", ratio(float64(after.Mallocs-before.Mallocs), float64(n)))
	return nil
}

// --- db-topk ---

func traceDB(rep *report, seed int64) error {
	ds := genDBs(seed)
	tables, err := loadTables(ds)
	if err != nil {
		return err
	}
	ors := make([]*dbOracle, len(ds))
	for i, d := range ds {
		ors[i] = newDBOracle(d)
	}
	st := newDBStream(seed, 0)
	ops := make([]*op, traceDBQueries)
	for i := range ops {
		ops[i] = st.next()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	check := func(o *op, keys []string, meds []float64, err error) {
		rep.res.Attempted++
		if err == nil {
			err = ors[o.query.table].check(o.query, keys, meds)
		}
		if err != nil {
			rep.res.Failed++
			fmt.Printf("%s failed: %v\n", o.query.describe(), err)
		}
	}

	untraced := make([]time.Duration, len(ops))
	for i, o := range ops {
		t0 := time.Now()
		res, err := query(ctx, tables[o.query.table], o.query)
		untraced[i] = time.Since(t0)
		if err != nil {
			check(o, nil, nil, err)
			continue
		}
		check(o, res.Keys, res.MedianPositions, nil)
	}

	ls := newLayerStats()
	rec := NewRecorder()
	traced := make([]time.Duration, len(ops))
	for tr, o := range ops {
		q := o.query
		t := tables[q.table]
		var res *db.QueryResult
		var qerr error
		qid := rec.Time(tr, -1, "db", o.class(), func() { res, qerr = query(ctx, t, q) })
		qsp := rec.Get(qid)
		traced[tr] = qsp.Dur()
		ls.add("db.query_ms", ms(qsp.Dur()))
		if qerr != nil {
			check(o, nil, nil, qerr)
			continue
		}
		check(o, res.Keys, res.MedianPositions, nil)

		var subset []int
		if q.filtered {
			var ferr error
			fid := rec.Time(tr, qid, "db.filter", "filter", func() { subset, ferr = t.Filter(q.conds) })
			if ferr != nil {
				return ferr
			}
			ls.add("db.filter_ms", ms(rec.Get(fid).Dur()))
		}
		rs := make([]*ranking.PartialRanking, len(q.prefs))
		var scan time.Duration
		for i, p := range q.prefs {
			var serr error
			sid := rec.Time(tr, qid, "db.index_scan", p.Column, func() {
				if q.filtered {
					rs[i], serr = t.IndexScanSubset(p, subset)
				} else {
					rs[i], serr = t.IndexScan(p)
				}
			})
			if serr != nil {
				return serr
			}
			scan += rec.Get(sid).Dur()
		}
		ls.add("db.index_scan_ms", ms(scan))

		var eres *topk.Result
		var costRatio int
		var eerr error
		eid := rec.Time(tr, qid, "topk", o.algo, func() { eres, costRatio, eerr = engineRun(ctx, o.algo, rs, q.k, topk.RoundRobin) })
		if eerr != nil {
			return fmt.Errorf("engine replay: %w", eerr)
		}
		esp := rec.Get(eid)
		ls.add("topk."+o.algo+"_ms", ms(esp.Dur()))
		recordEngine(ls, eres, costRatio, rs, esp.Allocs)
		med4, err := aggregate.MedianScores2(rs, aggregate.LowerMedian)
		if err != nil {
			return err
		}
		rep.res.Attempted++
		if err := checkEngine(eres, med4, q.k, o.algo); err != nil {
			rep.res.Failed++
			fmt.Printf("%s engine replay failed: %v\n", q.describe(), err)
		}
	}
	if err := shares(ls, rec.Spans(), ops, "db"); err != nil {
		return err
	}
	overhead(ls, traced, untraced)
	ls.finish(rep)
	return nil
}
