package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/db"
)

// loadTables loads the generated CSVs the way a user would, through the
// hardened strict loader.
func loadTables(ds []*dbData) ([]*db.Table, error) {
	var out []*db.Table
	for i, d := range ds {
		t, _, err := db.LoadCSVWith(fmt.Sprintf("catalog%d", i), bytes.NewReader(d.csv), "id", d.types, db.LoadOptions{})
		if err != nil {
			return nil, fmt.Errorf("loading generated catalog %d: %w", i, err)
		}
		if t.NumRows() != dbRows {
			return nil, fmt.Errorf("catalog %d loaded %d rows, generated %d", i, t.NumRows(), dbRows)
		}
		out = append(out, t)
	}
	return out, nil
}

// query runs one db-topk query.
func query(ctx context.Context, t *db.Table, q *dbQuery) (*db.QueryResult, error) {
	if q.filtered {
		return t.TopKWhereContext(ctx, db.FilteredQuery{Conditions: q.conds, Preferences: q.prefs, K: q.k})
	}
	return t.TopKContext(ctx, db.Query{Preferences: q.prefs, K: q.k, Algo: q.algo})
}

// dbAnswer is the part of a query result the oracle checks.
type dbAnswer struct {
	keys    []string
	medians []float64
}

func runDB(rep *report, seed int64, dur time.Duration) error {
	ds := genDBs(seed)
	var setups []float64
	var tables []*db.Table
	for i := 0; i < dbSetupReps; i++ {
		tables = nil
		runtime.GC() // the previous tables are garbage; keep them out of this load
		t0 := time.Now()
		ts, err := loadTables(ds)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		tables = ts
	}

	streams := make([]*dbStream, clients)
	for c := range streams {
		streams[c] = newDBStream(seed, c)
	}
	ctx := context.Background()
	rss := &rssSampler{pid: os.Getpid()}
	samples := closedLoop(dur, func(c int) *op { return streams[c].next() }, func(_ int, o *op) sample {
		res, err := query(ctx, tables[o.query.table], o.query)
		if err != nil {
			return sample{err: err}
		}
		return sample{answer: dbAnswer{keys: res.Keys, medians: res.MedianPositions}}
	}, rss.run)

	ors := make([]*dbOracle, len(ds))
	for i, d := range ds {
		ors[i] = newDBOracle(d)
	}
	verify(rep, samples, func(s sample) error {
		a := s.answer.(dbAnswer)
		if err := ors[s.op.query.table].check(s.op.query, a.keys, a.medians); err != nil {
			return fmt.Errorf("%s: %w", s.op.query.describe(), err)
		}
		return nil
	})
	fmt.Printf("checked %d queries (warm-up included) against the offline oracle: %d failed\n", rep.res.Attempted, rep.res.Failed)
	countClasses(samples)
	addSetup(rep, setups, fmt.Sprintf("loads of %d CSV tables of %d rows", dbTables, dbRows))
	latencyMetrics(rep, samples, dur, "topk", func(*op) bool { return true })
	return rss.report(rep, "benchmark process")
}
