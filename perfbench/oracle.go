package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/aggregate"
	"repro/internal/db"
	"repro/internal/metrics"
	"repro/internal/ranking"
)

// The oracle recomputes every answer offline, after the timed run, from the
// catalog state the op ran against. Top-k answers are judged the way the
// paper defines them: the winners' lower medians must be the k smallest
// lower medians, as a multiset, so ties may be broken either way and the
// NRA/CA engines, which report certified upper bounds rather than exact
// medians, are judged on their winner set.

// parsedState is a catalog state parsed exactly as the server parses it:
// element numbering follows the first line.
type parsedState struct {
	rankings  []*ranking.PartialRanking
	dom       *ranking.Domain
	survivors map[string][]int64 // lost-list set -> quadrupled lower medians
	aggs      map[string]*aggAnswer
}

type aggAnswer struct {
	scores  []float64
	median  string
	sumDist float64
}

// oracle checks serving answers. It memoizes per catalog state and is not
// safe for concurrent use; answers are checked after the timed run.
type oracle struct {
	states map[*catState]*parsedState
}

func newOracle() *oracle { return &oracle{states: map[*catState]*parsedState{}} }

func (o *oracle) parsed(s *catState) (*parsedState, error) {
	if p, ok := o.states[s]; ok {
		return p, nil
	}
	rs, dom, err := ranking.ParseLines(bytes.NewReader(s.body()))
	if err != nil {
		return nil, fmt.Errorf("oracle: parsing catalog state: %w", err)
	}
	p := &parsedState{rankings: rs, dom: dom, survivors: map[string][]int64{}, aggs: map[string]*aggAnswer{}}
	o.states[s] = p
	return p, nil
}

// medians4 returns the quadrupled lower medians over the lists not in lost.
func (p *parsedState) medians4(lost []int) ([]int64, error) {
	key := fmt.Sprint(lost)
	if m, ok := p.survivors[key]; ok {
		return m, nil
	}
	dead := map[int]bool{}
	for _, l := range lost {
		if l < 0 || l >= len(p.rankings) {
			return nil, fmt.Errorf("lost list %d out of range [0,%d)", l, len(p.rankings))
		}
		dead[l] = true
	}
	var live []*ranking.PartialRanking
	for i, r := range p.rankings {
		if !dead[i] {
			live = append(live, r)
		}
	}
	m, err := aggregate.MedianScores2(live, aggregate.LowerMedian)
	if err != nil {
		return nil, err
	}
	p.survivors[key] = m
	return m, nil
}

// checkWinners judges a top-k answer: winners are element IDs best first
// and got their reported median positions. exact says whether the engine
// reports exact medians (MEDRANK, TA) or certified upper bounds (NRA, CA).
// med4 holds every element's lower median, quadrupled.
func checkWinners(winners []int, got []float64, med4 []int64, k int, exact bool) error {
	want := k
	if want > len(med4) {
		want = len(med4)
	}
	if len(winners) != want || len(got) != want {
		return fmt.Errorf("%d winners and %d medians, want %d", len(winners), len(got), want)
	}
	seen := map[int]bool{}
	have := make([]int64, 0, want)
	for i, w := range winners {
		if w < 0 || w >= len(med4) || seen[w] {
			return fmt.Errorf("winner %d invalid or repeated", w)
		}
		seen[w] = true
		have = append(have, med4[w])
		// Quarter positions are exact in a float64.
		if offline := float64(med4[w]) / 4; exact && got[i] != offline || !exact && got[i] < offline {
			return fmt.Errorf("winner %d reports median %v, offline %v (exact=%v)", w, got[i], offline, exact)
		}
	}
	all := append([]int64(nil), med4...)
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	sort.Slice(have, func(i, j int) bool { return have[i] < have[j] })
	for i := range have {
		if have[i] != all[i] {
			return fmt.Errorf("winners' medians %v are not the %d smallest %v", have, want, all[:want])
		}
	}
	return nil
}

func exactAlgo(algo string) bool { return algo != "nra" && algo != "ca" }

// topkResponse holds the fields of service.TopKResponse the oracle reads.
type topkResponse struct {
	Winners  []string  `json:"winners"`
	Medians  []float64 `json:"medians"`
	Degraded *struct {
		Lost []int `json:"lost"`
	} `json:"degraded"`
}

type aggregateResponse struct {
	Metric  string             `json:"metric"`
	Medians map[string]float64 `json:"medians"`
	Median  struct {
		Ranking     string  `json:"ranking"`
		SumDistance float64 `json:"sum_distance"`
	} `json:"median"`
}

type ingestResponse struct {
	Rankings int `json:"rankings"`
}

// checkServe judges one serving op's response body.
func (o *oracle) checkServe(op *op, body []byte) error {
	switch op.kind {
	case "append", "put":
		var r ingestResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("decoding %s response: %w", op.kind, err)
		}
		if r.Rankings != len(op.state.lines) {
			return fmt.Errorf("%s left %d rankings, want %d", op.kind, r.Rankings, len(op.state.lines))
		}
		return nil
	case "aggregate":
		return o.checkAggregate(op, body)
	}
	var r topkResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding topk response: %w", err)
	}
	p, err := o.parsed(op.state)
	if err != nil {
		return err
	}
	var lost []int
	if r.Degraded != nil {
		lost = r.Degraded.Lost
	}
	med4, err := p.medians4(lost)
	if err != nil {
		return err
	}
	ids := make([]int, len(r.Winners))
	for i, name := range r.Winners {
		id, ok := p.dom.ID(name)
		if !ok {
			return fmt.Errorf("unknown winner %q", name)
		}
		ids[i] = id
	}
	return checkWinners(ids, r.Medians, med4, op.k, exactAlgo(op.algo))
}

func metricWS(name string) metrics.DistanceWS {
	switch name {
	case "fprof":
		return metrics.FProfWS
	case "khaus":
		return metrics.KHausWS
	case "fhaus":
		return metrics.FHausWS
	}
	return metrics.KProfWS
}

func (o *oracle) checkAggregate(op *op, body []byte) error {
	var r aggregateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding aggregate response: %w", err)
	}
	p, err := o.parsed(op.state)
	if err != nil {
		return err
	}
	want, ok := p.aggs[op.metric]
	if !ok {
		n := p.dom.Size()
		scores, err := aggregate.MedianScores(p.rankings, aggregate.LowerMedian)
		if err != nil {
			return err
		}
		med, err := aggregate.MedianTopK(p.rankings, n)
		if err != nil {
			return err
		}
		sum, err := aggregate.SumDistanceWith(metrics.NewWorkspace(), med, p.rankings, metricWS(op.metric))
		if err != nil {
			return err
		}
		want = &aggAnswer{scores: scores, median: p.dom.Render(med), sumDist: sum}
		p.aggs[op.metric] = want
	}
	if r.Metric != op.metric {
		return fmt.Errorf("aggregate answered metric %q, asked %q", r.Metric, op.metric)
	}
	if len(r.Medians) != len(want.scores) {
		return fmt.Errorf("%d medians, want %d", len(r.Medians), len(want.scores))
	}
	for id, s := range want.scores {
		if got := r.Medians[p.dom.Name(id)]; got != s {
			return fmt.Errorf("median of %s is %v, offline %v", p.dom.Name(id), got, s)
		}
	}
	if r.Median.Ranking != want.median {
		return fmt.Errorf("median ranking differs from the offline one")
	}
	if math.Abs(r.Median.SumDistance-want.sumDist) > 1e-9*math.Max(1, math.Abs(want.sumDist)) {
		return fmt.Errorf("median sum_distance %v, offline %v", r.Median.SumDistance, want.sumDist)
	}
	return nil
}

// dbOracle ranks the generated rows itself, from the column values, without
// internal/db.
type dbOracle struct {
	d     *dbData
	rowOf map[string]int
	// Memos: queries repeat filters and preferences, so the rows a filter
	// keeps and the positions a preference gives them are computed once.
	subsets map[string][]int
	pos     map[string][]int64
}

func newDBOracle(d *dbData) *dbOracle {
	o := &dbOracle{d: d, rowOf: map[string]int{}, subsets: map[string][]int{}, pos: map[string][]int64{}}
	for i, k := range d.keys {
		o.rowOf[k] = i
	}
	return o
}

func (o *dbOracle) matches(row int, conds []db.Condition) bool {
	for _, c := range conds {
		if c.Column == "city" || c.Column == "cuisine" {
			v := o.d.str[c.Column][row]
			want := c.Value.(string)
			if (c.Op == db.Eq) != (v == want) {
				return false
			}
			continue
		}
		v := o.d.num[c.Column][row]
		var want float64
		switch x := c.Value.(type) {
		case int:
			want = float64(x)
		case float64:
			want = x
		}
		ok := map[db.CompareOp]bool{db.Eq: v == want, db.Ne: v != want, db.Lt: v < want,
			db.Le: v <= want, db.Gt: v > want, db.Ge: v >= want}[c.Op]
		if !ok {
			return false
		}
	}
	return true
}

// sortKey is the value a preference sorts a row by, smaller first.
func (o *dbOracle) sortKey(p db.Preference, row int) float64 {
	if len(p.ValueOrder) > 0 {
		v := o.d.str[p.Column][row]
		for i, x := range p.ValueOrder {
			if x == v {
				return float64(i)
			}
		}
		return float64(len(p.ValueOrder))
	}
	v := o.d.num[p.Column][row]
	if p.CoarsenStep > 0 {
		v = math.Floor(v / p.CoarsenStep)
	}
	if p.Direction == db.Descending {
		v = -v
	}
	return v
}

// rows returns the rows a filter keeps, in row order.
func (o *dbOracle) rows(conds []db.Condition) (string, []int) {
	key := fmt.Sprint(conds)
	if rows, ok := o.subsets[key]; ok {
		return key, rows
	}
	var rows []int
	for r := range o.d.keys {
		if o.matches(r, conds) {
			rows = append(rows, r)
		}
	}
	o.subsets[key] = rows
	return key, rows
}

// positions2 returns the doubled position one preference gives each of the
// rows. A row's doubled position is 2*(rows ahead of it) + (rows tied with
// it, itself included) + 1: twice the average of the positions its tie
// bucket spans.
func (o *dbOracle) positions2(subset string, rows []int, p db.Preference) []int64 {
	key := subset + fmt.Sprintf("|%+v", p)
	if pos, ok := o.pos[key]; ok {
		return pos
	}
	keys := make([]float64, len(rows))
	for i, r := range rows {
		keys[i] = o.sortKey(p, r)
	}
	sorted := append([]float64(nil), keys...)
	sort.Float64s(sorted)
	pos := make([]int64, len(rows))
	for i, k := range keys {
		less := sort.SearchFloat64s(sorted, k)
		eq := sort.SearchFloat64s(sorted, math.Nextafter(k, math.Inf(1))) - less
		pos[i] = int64(2*less + eq + 1)
	}
	o.pos[key] = pos
	return pos
}

// medians2 returns the rows the query ranks and their doubled lower-median
// positions over the query's preferences.
func (o *dbOracle) medians2(q *dbQuery) (rows []int, med2 []int64) {
	subset, rows := o.rows(q.conds)
	pos := make([][]int64, len(q.prefs))
	for i, p := range q.prefs {
		pos[i] = o.positions2(subset, rows, p)
	}
	med2 = make([]int64, len(rows))
	buf := make([]int64, len(q.prefs))
	for r := range rows {
		for i := range pos {
			buf[i] = pos[i][r]
		}
		sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
		med2[r] = buf[(len(buf)-1)/2]
	}
	return rows, med2
}

// check judges one db answer: winner keys best first and their reported
// median positions.
func (o *dbOracle) check(q *dbQuery, keys []string, medians []float64) error {
	rows, med2 := o.medians2(q)
	index := map[int]int{}
	for i, r := range rows {
		index[r] = i
	}
	ids := make([]int, len(keys))
	for i, k := range keys {
		r, ok := o.rowOf[k]
		if !ok {
			return fmt.Errorf("unknown row key %q", k)
		}
		sub, ok := index[r]
		if !ok {
			return fmt.Errorf("row %s fails the query's filter", k)
		}
		ids[i] = sub
	}
	med4 := make([]int64, len(med2))
	for i, m := range med2 {
		med4[i] = 2 * m
	}
	return checkWinners(ids, medians, med4, q.k, exactAlgo(q.algo))
}

// describe renders a query for error messages.
func (q *dbQuery) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s k=%d", q.algo, q.k)
	for _, p := range q.prefs {
		b.WriteString(" " + p.Column)
		if p.Direction == db.Descending {
			b.WriteString(" desc")
		}
		if p.CoarsenStep > 0 {
			b.WriteString("/" + strconv.FormatFloat(p.CoarsenStep, 'g', -1, 64))
		}
	}
	for _, c := range q.conds {
		fmt.Fprintf(&b, " where %s %s %v", c.Column, c.Op, c.Value)
	}
	return b.String()
}
