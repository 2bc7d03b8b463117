package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/randrank"
	"repro/internal/ranking"
)

// Workload parameters. Each is recorded in the workload table of README.md;
// change both together.

// serve-topk: two tenants, each with several tie-heavy attribute catalogs
// (randrank.CatalogEnsemble). Several catalogs per tenant average out how
// deep the engines must scan on any one generated instance, which otherwise
// moves the per-op cost from seed to seed.
var topkShapes = []struct {
	tenant string
	n, m   int
}{{"t0", 2000, 24}, {"t1", 1000, 32}}

const (
	topkCatalogsPerTenant = 12
	topkValues            = 8    // distinct attribute values per list
	topkZipf              = 1.0  // Zipf exponent of the value frequencies
	topkTheta             = 0.05 // Mallows dispersion around the hidden order
	topkResilientEvery    = 10   // every 10th request runs in resilient mode
	topkDeathRate         = 0.0005
)

// topkChaosSeeds is the fixed set the resilient requests cycle through.
var topkChaosSeeds = []int64{11, 12, 13, 14, 15, 16, 17, 18}

var algos = []string{"medrank", "ta", "nra", "ca"}
var topkKs = []int{1, 10}

// topkEngineWeights sets serve-topk's engine mix. NRA and CA answer these
// catalogs several times faster than MEDRANK and TA; with equal weights the
// median request would sit in the gap between the fast and the slow half,
// where it jumps from run to run.
var topkEngineWeights = map[string]int{"medrank": 2, "ta": 2, "nra": 1, "ca": 1}

// cycle deals a fixed multiset of mix cells in a fresh random order each
// round, so every round runs the exact mix and the mix of a run cannot
// drift from seed to seed.
type cycle[T any] struct {
	rng   *rand.Rand
	cells []T
	pos   int
}

func newCycle[T any](rng *rand.Rand, cells []T) *cycle[T] {
	return &cycle[T]{rng: rng, cells: cells}
}

func (c *cycle[T]) next() T {
	if c.pos == 0 {
		c.rng.Shuffle(len(c.cells), func(i, j int) { c.cells[i], c.cells[j] = c.cells[j], c.cells[i] })
	}
	x := c.cells[c.pos]
	c.pos = (c.pos + 1) % len(c.cells)
	return x
}

// engineCell is one (engine, k) cell of a top-k mix, on one catalog.
type engineCell struct {
	cat  int
	algo string
	k    int
}

// engineCells lists every (catalog, engine, k) cell, each engine as often as
// its weight says (nil weights: once each).
func engineCells(cats int, weights map[string]int) []engineCell {
	var out []engineCell
	for c := 0; c < cats; c++ {
		for _, a := range algos {
			w := 1
			if weights != nil {
				w = weights[a]
			}
			for _, k := range topkKs {
				for i := 0; i < w; i++ {
					out = append(out, engineCell{c, a, k})
				}
			}
		}
	}
	return out
}

// serve-mixed: small Mallows-partial catalogs, one per tenant, where tenants
// draw part of their lists from a shared pool so distance-cache entries are
// reused across tenants.
const (
	mixN          = 200
	mixM          = 24  // lists right after a PUT
	mixBuckets    = 10  // buckets per list (ties)
	mixTheta      = 0.1 // Mallows dispersion around the shared center
	mixPool       = 48  // shared lists
	mixSharedPct  = 50  // share of a tenant's new lists drawn from the pool
	mixTenants    = 4   // split evenly between the clients; each owns its own
	mixPutEvery   = 4   // every 4th write to a tenant is a PUT, the rest appends
	mixWeightTopK = 9   // op mix per round of 20: 45% topk, 35% aggregate, 20% writes
	mixWeightAgg  = 7
	mixWeightWrt  = 4
)

var mixMetrics = []string{"kprof", "fprof", "khaus", "fhaus"}

// catalog is one catalog as uploaded at set-up.
type catalog struct {
	tenant, name string
	body         []byte // PUT body in the text codec
}

func (c catalog) path() string {
	return "/v1/tenants/" + c.tenant + "/catalogs/" + c.name
}

// elementNames returns a domain of the n names prefix0..prefix(n-1).
func elementNames(prefix string, n int) *ranking.Domain {
	dom := ranking.NewDomain()
	for i := 0; i < n; i++ {
		dom.Intern(fmt.Sprintf("%s%d", prefix, i))
	}
	return dom
}

func render(dom *ranking.Domain, rs []*ranking.PartialRanking) []byte {
	var b bytes.Buffer
	if err := ranking.WriteLines(&b, dom, rs); err != nil {
		panic(err) // writes to a bytes.Buffer do not fail
	}
	return b.Bytes()
}

// topkCatalogs generates the serve-topk catalogs.
func topkCatalogs(seed int64) []catalog {
	rng := rand.New(rand.NewSource(seed))
	var out []catalog
	for _, sh := range topkShapes {
		dom := elementNames("i", sh.n)
		for c := 0; c < topkCatalogsPerTenant; c++ {
			ens := randrank.CatalogEnsemble(rng, sh.n, sh.m, topkValues, topkZipf, topkTheta)
			out = append(out, catalog{tenant: sh.tenant, name: fmt.Sprintf("c%d", c), body: render(dom, ens.Rankings)})
		}
	}
	return out
}

// op is one request of a serving workload, or one query of db-topk.
type op struct {
	kind      string // "topk", "aggregate", "append" or "put"
	tenant    string
	catalog   string
	algo      string
	k         int
	resilient bool
	chaosSeed int64
	metric    string
	body      []byte
	// state is the catalog the op runs against (reads) or leaves behind
	// (writes); the oracle recomputes answers from it.
	state *catState
	// db-topk only.
	query *dbQuery
}

func (o *op) method() string {
	if o.kind == "put" {
		return "PUT"
	}
	return "POST"
}

func (o *op) path() string {
	base := "/v1/tenants/" + o.tenant + "/catalogs/" + o.catalog
	switch o.kind {
	case "topk":
		return base + "/topk"
	case "aggregate":
		return base + "/aggregate"
	case "append":
		return base + "/rankings"
	}
	return base
}

func (o *op) write() bool { return o.kind == "append" || o.kind == "put" }

// group is the op's kind with appends and PUTs grouped as writes.
func (o *op) group() string {
	if o.write() {
		return "write"
	}
	return o.kind
}

// class names the op's mix cell for the printed op counts.
func (o *op) class() string {
	switch o.kind {
	case "topk":
		c := fmt.Sprintf("%s/k=%d", o.algo, o.k)
		if o.resilient {
			c += "/resilient"
		}
		if o.query != nil && o.query.filtered {
			c += "/filtered"
		}
		return c
	case "aggregate":
		return "aggregate/" + o.metric
	}
	return o.kind
}

// catState is a catalog's content: the lines in upload order. Lines are
// shared between states; a state is never modified once an op refers to it.
type catState struct {
	lines []string
}

func (s *catState) body() []byte {
	return []byte(strings.Join(s.lines, "\n") + "\n")
}

type topkRequest struct {
	K         int        `json:"k"`
	Algo      string     `json:"algo"`
	Resilient bool       `json:"resilient,omitempty"`
	Chaos     *chaosPlan `json:"chaos,omitempty"`
}

type chaosPlan struct {
	Seed      int64   `json:"seed"`
	DeathRate float64 `json:"death_rate"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request types are encoded
	}
	return b
}

// topkStream draws serve-topk requests for one client: every catalog,
// engine and k equally often.
type topkStream struct {
	cells  *cycle[engineCell]
	cats   []catalog
	states []*catState
	n      int
}

func newTopkStream(seed int64, client int, cats []catalog, states []*catState) *topkStream {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
	return &topkStream{cells: newCycle(rng, engineCells(len(cats), topkEngineWeights)), cats: cats, states: states}
}

func (s *topkStream) next() *op {
	c := s.cells.next()
	o := &op{
		kind:    "topk",
		tenant:  s.cats[c.cat].tenant,
		catalog: s.cats[c.cat].name,
		algo:    c.algo,
		k:       c.k,
		state:   s.states[c.cat],
	}
	req := topkRequest{K: o.k, Algo: o.algo}
	if s.n++; s.n%topkResilientEvery == 0 {
		o.resilient = true
		req.Resilient = true
		o.chaosSeed = topkChaosSeeds[(s.n/topkResilientEvery)%len(topkChaosSeeds)]
		req.Chaos = &chaosPlan{Seed: o.chaosSeed, DeathRate: topkDeathRate}
	}
	o.body = mustJSON(req)
	return o
}

// mixWorld holds what the serve-mixed tenants share: the element names, the
// center their lists scatter around and the shared pool.
type mixWorld struct {
	dom    *ranking.Domain
	center *ranking.PartialRanking
	pool   []string
}

func newMixWorld(seed int64) *mixWorld {
	rng := rand.New(rand.NewSource(seed))
	w := &mixWorld{dom: elementNames("e", mixN), center: randrank.Full(rng, mixN)}
	for i := 0; i < mixPool; i++ {
		w.pool = append(w.pool, w.line(rng))
	}
	return w
}

func (w *mixWorld) line(rng *rand.Rand) string {
	return w.dom.Render(randrank.Coarsen(randrank.MallowsFull(rng, w.center, mixTheta), mixBuckets))
}

// mixTenant is one serve-mixed tenant's catalog history. Only the client
// that owns the tenant touches it, so the catalog an answer was computed on
// is always known.
type mixTenant struct {
	name   string
	rng    *rand.Rand
	world  *mixWorld
	state  *catState
	writes int
}

// newMixTenant builds the initial catalog: the pool's first list (the
// anchor, which fixes element numbering and so lets cache entries cross
// tenants) followed by mixM-1 fresh lists.
func newMixTenant(seed int64, idx int, w *mixWorld) *mixTenant {
	t := &mixTenant{
		name:  fmt.Sprintf("m%d", idx),
		rng:   rand.New(rand.NewSource(seed*104729 + int64(idx) + 1)),
		world: w,
	}
	lines := []string{w.pool[0]}
	for len(lines) < mixM {
		lines = append(lines, t.newLine())
	}
	t.state = &catState{lines: lines}
	return t
}

func (t *mixTenant) newLine() string {
	if t.rng.Intn(100) < mixSharedPct {
		return t.world.pool[t.rng.Intn(len(t.world.pool))]
	}
	return t.world.line(t.rng)
}

func (t *mixTenant) catalog() catalog {
	return catalog{tenant: t.name, name: "main", body: t.state.body()}
}

// write advances the tenant by one write. Appends add one list. Every
// mixPutEvery-th write is a PUT that resets the catalog to mixM lists so its
// size stays bounded; PUTs alternate between keeping the anchor first (the
// element numbering, and so every cache key, is unchanged) and moving the
// newest list first (the server renumbers the domain and all of the
// tenant's pairs miss).
func (t *mixTenant) write() *op {
	t.writes++
	old := t.state.lines
	o := &op{tenant: t.name, catalog: "main"}
	if t.writes%mixPutEvery != 0 {
		l := t.newLine()
		o.kind = "append"
		o.body = []byte(l + "\n")
		t.state = &catState{lines: append(old[:len(old):len(old)], l)}
	} else {
		o.kind = "put"
		var lines []string
		if (t.writes/mixPutEvery)%2 == 1 {
			lines = append([]string{t.world.pool[0]}, old[len(old)-(mixM-1):]...)
		} else {
			tail := old[len(old)-mixM:]
			lines = append([]string{tail[mixM-1]}, tail[:mixM-1]...)
		}
		t.state = &catState{lines: lines}
		o.body = t.state.body()
	}
	o.state = t.state
	return o
}

// mixStream draws serve-mixed requests for one client over its own tenants.
type mixStream struct {
	kinds   *cycle[string]
	engines *cycle[engineCell]
	tenants *cycle[int]
	owned   []*mixTenant
	aggs    int
}

func newMixStream(seed int64, client int, owned []*mixTenant) *mixStream {
	rng := rand.New(rand.NewSource(seed*6151 + int64(client) + 1))
	var kinds []string
	for _, kw := range []struct {
		kind string
		w    int
	}{{"topk", mixWeightTopK}, {"aggregate", mixWeightAgg}, {"write", mixWeightWrt}} {
		for i := 0; i < kw.w; i++ {
			kinds = append(kinds, kw.kind)
		}
	}
	var tenants []int
	for i := range owned {
		tenants = append(tenants, i)
	}
	return &mixStream{kinds: newCycle(rng, kinds), engines: newCycle(rng, engineCells(1, nil)),
		tenants: newCycle(rng, tenants), owned: owned}
}

func (s *mixStream) next() *op {
	t := s.owned[s.tenants.next()]
	switch s.kinds.next() {
	case "topk":
		c := s.engines.next()
		o := &op{kind: "topk", tenant: t.name, catalog: "main", state: t.state, algo: c.algo, k: c.k}
		o.body = mustJSON(topkRequest{K: o.k, Algo: o.algo})
		return o
	case "aggregate":
		o := &op{kind: "aggregate", tenant: t.name, catalog: "main", state: t.state,
			metric: mixMetrics[s.aggs%len(mixMetrics)]}
		s.aggs++
		o.body = mustJSON(map[string]any{"metric": o.metric, "kemenize": true})
		return o
	}
	return t.write()
}
