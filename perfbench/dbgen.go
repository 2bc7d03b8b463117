package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/db"
)

// db-topk: generated catalog tables. Every attribute is a noisy,
// few-valued reading of a hidden per-row quality, so index scans are
// tie-heavy and agree in part, like the paper's restaurant example.
const (
	dbTables     = 8 // independent tables, queried in turn
	dbRows       = 3000
	dbMinPrefs   = 3
	dbMaxPrefs   = 5
	dbCoarsenPct = 50 // share of coarsenable preferences that are coarsened
	dbAgainstPct = 20 // share of numeric preferences against the column's natural direction
)

// dbMix is the query mix per round, for each k: unfiltered queries by
// engine, and filtered ones (TopKWhere runs MEDRANK), 25% of the total.
// NRA and CA cost several times MEDRANK and TA on these tables, so they get
// less weight and no engine class dominates the run's time.
var dbMix = []struct {
	algo     string
	filtered bool
	weight   int
}{{"medrank", false, 5}, {"ta", false, 5}, {"nra", false, 1}, {"ca", false, 1}, {"medrank", true, 4}}

var dbCuisines = []string{"thai", "indian", "italian", "french", "mexican", "japanese", "greek", "diner"}
var dbCities = []string{"north", "south", "east", "west", "center", "harbor"}

// dbColumn describes one generated attribute.
type dbColumn struct {
	name    string
	typ     db.ColumnType
	coarsen float64      // step a preference may coarsen by, 0 if never
	natural db.Direction // the direction in which better rows come first
}

var dbColumns = []dbColumn{
	{"price", db.IntCol, 100, db.Ascending},
	{"rating", db.IntCol, 0, db.Descending},
	{"dist", db.FloatCol, 5, db.Ascending},
	{"year", db.IntCol, 0, db.Descending},
	{"reviews", db.IntCol, 500, db.Descending},
	{"cuisine", db.StringCol, 0, db.Ascending},
	{"city", db.StringCol, 0, db.Ascending},
}

// dbPrefColumns are the columns queries express preferences over; city is
// only filtered on.
var dbPrefColumns = []string{"price", "rating", "dist", "year", "reviews", "cuisine"}

// dbData is the generated table, kept column-wise so the oracle can rank
// rows without going through internal/db.
type dbData struct {
	keys  []string
	num   map[string][]float64 // int and float columns, as loaded
	str   map[string][]string
	csv   []byte
	types map[string]db.ColumnType
}

func clampInt(v float64, lo, hi int) int {
	x := int(math.Round(v))
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// genDBs generates the workload's tables.
func genDBs(seed int64) []*dbData {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*dbData, dbTables)
	for i := range out {
		out[i] = genDB(rng)
	}
	return out
}

func genDB(rng *rand.Rand) *dbData {
	d := &dbData{
		num:   map[string][]float64{},
		str:   map[string][]string{},
		types: map[string]db.ColumnType{},
	}
	for _, c := range dbColumns {
		d.types[c.name] = c.typ
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	header := []string{"id"}
	for _, c := range dbColumns {
		header = append(header, c.name)
	}
	_ = w.Write(header) // a csv.Writer over a bytes.Buffer reports errors at Flush
	for i := 0; i < dbRows; i++ {
		q := rng.NormFloat64() // hidden quality, higher is better
		noise := func(s float64) float64 { return q + s*rng.NormFloat64() }
		price := clampInt(500-180*noise(1), 0, 999)
		rating := clampInt(3+noise(1.2), 1, 5)
		dist := math.Round(math.Max(0, 12-4*noise(1.5))*10) / 10
		year := clampInt(2010+5*noise(1.5), 1995, 2024)
		reviews := clampInt(2000+900*noise(1), 0, 4999)
		cu := dbCuisines[clampInt(3.5-1.8*noise(2), 0, len(dbCuisines)-1)]
		city := dbCities[rng.Intn(len(dbCities))]
		key := fmt.Sprintf("r%05d", i)
		d.keys = append(d.keys, key)
		d.num["price"] = append(d.num["price"], float64(price))
		d.num["rating"] = append(d.num["rating"], float64(rating))
		d.num["dist"] = append(d.num["dist"], dist)
		d.num["year"] = append(d.num["year"], float64(year))
		d.num["reviews"] = append(d.num["reviews"], float64(reviews))
		d.str["cuisine"] = append(d.str["cuisine"], cu)
		d.str["city"] = append(d.str["city"], city)
		_ = w.Write([]string{key, strconv.Itoa(price), strconv.Itoa(rating),
			strconv.FormatFloat(dist, 'g', -1, 64), strconv.Itoa(year), strconv.Itoa(reviews), cu, city})
	}
	w.Flush()
	if err := w.Error(); err != nil {
		panic(err) // writes to a bytes.Buffer do not fail
	}
	d.csv = buf.Bytes()
	return d
}

// dbQuery is one generated db-topk query.
type dbQuery struct {
	table    int
	prefs    []db.Preference
	conds    []db.Condition
	filtered bool
	algo     string
	k        int
}

// dbCell is one cell of the db-topk mix.
type dbCell struct {
	table    int
	algo     string
	filtered bool
	k        int
}

// dbStream draws db-topk queries for one client.
type dbStream struct {
	rng   *rand.Rand
	cells *cycle[dbCell]
}

func newDBStream(seed int64, client int) *dbStream {
	rng := rand.New(rand.NewSource(seed*3571 + int64(client) + 1))
	var cells []dbCell
	for t := 0; t < dbTables; t++ {
		for _, m := range dbMix {
			for _, k := range topkKs {
				for i := 0; i < m.weight; i++ {
					cells = append(cells, dbCell{t, m.algo, m.filtered, k})
				}
			}
		}
	}
	return &dbStream{rng: rng, cells: newCycle(rng, cells)}
}

func (s *dbStream) next() *op {
	c := s.cells.next()
	q := &dbQuery{table: c.table, k: c.k, algo: c.algo, filtered: c.filtered}
	np := dbMinPrefs + s.rng.Intn(dbMaxPrefs-dbMinPrefs+1)
	for _, ci := range s.rng.Perm(len(dbPrefColumns))[:np] {
		name := dbPrefColumns[ci]
		var col dbColumn
		for _, c := range dbColumns {
			if c.name == name {
				col = c
			}
		}
		p := db.Preference{Column: name}
		if col.typ == db.StringCol {
			for _, vi := range s.rng.Perm(len(dbCuisines))[:4] {
				p.ValueOrder = append(p.ValueOrder, dbCuisines[vi])
			}
		} else {
			p.Direction = col.natural
			if s.rng.Intn(100) < dbAgainstPct {
				p.Direction = 1 - col.natural
			}
			if col.coarsen > 0 && s.rng.Intn(100) < dbCoarsenPct {
				p.CoarsenStep = col.coarsen
			}
		}
		q.prefs = append(q.prefs, p)
	}
	if q.filtered {
		switch s.rng.Intn(3) {
		case 0:
			q.conds = []db.Condition{{Column: "city", Op: db.Ne, Value: dbCities[s.rng.Intn(len(dbCities))]}}
		case 1:
			q.conds = []db.Condition{{Column: "rating", Op: db.Ge, Value: 3}}
		default:
			q.conds = []db.Condition{
				{Column: "price", Op: db.Lt, Value: 700},
				{Column: "city", Op: db.Ne, Value: dbCities[s.rng.Intn(len(dbCities))]},
			}
		}
	}
	return &op{kind: "topk", algo: q.algo, k: q.k, query: q}
}
