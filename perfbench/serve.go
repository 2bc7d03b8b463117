package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"
)

// serveSetup is one serving workload's generated inputs.
type serveSetup struct {
	cats []catalog
	// next draws the next op of a client; it may advance that client's
	// own tenants (serve-mixed writes).
	next func(client int) *op
}

func newServeSetup(workload string, seed int64) *serveSetup {
	if workload == "serve-topk" {
		cats := topkCatalogs(seed)
		states := make([]*catState, len(cats))
		for i, c := range cats {
			states[i] = &catState{lines: strings.Split(strings.TrimSuffix(string(c.body), "\n"), "\n")}
		}
		streams := make([]*topkStream, clients)
		for c := range streams {
			streams[c] = newTopkStream(seed, c, cats, states)
		}
		return &serveSetup{cats: cats, next: func(c int) *op { return streams[c].next() }}
	}
	w := newMixWorld(seed)
	s := &serveSetup{}
	var tenants []*mixTenant
	for i := 0; i < mixTenants; i++ {
		t := newMixTenant(seed, i, w)
		tenants = append(tenants, t)
		s.cats = append(s.cats, t.catalog())
	}
	streams := make([]*mixStream, clients)
	per := mixTenants / clients
	for c := range streams {
		streams[c] = newMixStream(seed, c, tenants[c*per:(c+1)*per])
	}
	s.next = func(c int) *op { return streams[c].next() }
	return s
}

// startAndIngest starts a server and uploads the catalogs, timing both:
// the set-up a user waits for before the first query can run.
func startAndIngest(bin string, cats []catalog, env ...string) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(bin, env...)
	if err != nil {
		return nil, 0, err
	}
	cl := newClient(1)
	for _, c := range cats {
		if _, err := do(context.Background(), cl, "PUT", srv.base+c.path(), c.body); err != nil {
			srv.stop()
			return nil, 0, fmt.Errorf("ingesting %s: %w", c.path(), err)
		}
	}
	elapsed := time.Since(t0)
	cl.CloseIdleConnections()
	return srv, elapsed, nil
}

func runServe(rep *report, workload string, seed int64, dur time.Duration, bin string) error {
	setup := newServeSetup(workload, seed)
	var setups []float64
	var srv *server
	for i := 0; i < setupReps; i++ {
		s, d, err := startAndIngest(bin, setup.cats)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	cl := newClient(clients)
	rss := &rssSampler{pid: srv.cmd.Process.Pid}
	samples := closedLoop(dur, setup.next, func(_ int, o *op) sample {
		body, err := do(context.Background(), cl, o.method(), srv.base+o.path(), o.body)
		return sample{body: body, err: err}
	}, rss.run)
	cl.CloseIdleConnections()

	or := newOracle()
	verify(rep, samples, func(s sample) error { return or.checkServe(s.op, s.body) })
	fmt.Printf("checked %d ops (warm-up included) against the offline oracle: %d failed\n", rep.res.Attempted, rep.res.Failed)

	countClasses(samples)
	if workload == "serve-mixed" {
		printMixShape(measuredOps(samples))
		infoLatency(samples, "aggregate", func(o *op) bool { return o.kind == "aggregate" })
		infoLatency(samples, "write", (*op).write)
	}
	addSetup(rep, setups, "server starts plus catalog ingests")
	latencyMetrics(rep, samples, dur, "topk", func(o *op) bool { return o.kind == "topk" })
	return rss.report(rep, "rankserve child")
}

// addSetup reports setup_s, the median of the run's set-ups.
func addSetup(rep *report, setups []float64, what string) {
	sorted := append([]float64(nil), setups...)
	sort.Float64s(sorted)
	rep.add("setup_s", median(setups), "s", len(setups),
		fmt.Sprintf("(median of %d %s, %.4g..%.4g s)", len(setups), what, sorted[0], sorted[len(sorted)-1]))
}

// printMixShape prints the serve-mixed catalog sizes the measured ops saw
// and the write-type shares.
func printMixShape(ops []*op) {
	lo, hi := 1<<30, 0
	var appends, puts int
	for _, o := range ops {
		if n := len(o.state.lines); n < lo {
			lo = n
		}
		if n := len(o.state.lines); n > hi {
			hi = n
		}
		switch o.kind {
		case "append":
			appends++
		case "put":
			puts++
		}
	}
	fmt.Printf("catalog size range: %d..%d lists of %d elements\n", lo, hi, mixN)
	if w := appends + puts; w > 0 {
		fmt.Printf("write shares: append %.3f put %.3f (%d writes)\n", float64(appends)/float64(w), float64(puts)/float64(w), w)
	}
}
