package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A self-contained well-formedness checker for the Prometheus text exposition
// format, so CI can lint GET /metrics without any external Prometheus
// dependency. The parser is reusable on its own: rankload's -scrape mode uses
// it to read server-side histograms back out of an exposition.

// Problem is one lint finding, anchored to a 1-based line number (0 when the
// problem is about the exposition as a whole).
type Problem struct {
	Line int
	Msg  string
}

func (p Problem) String() string {
	if p.Line > 0 {
		return fmt.Sprintf("line %d: %s", p.Line, p.Msg)
	}
	return p.Msg
}

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
	Line   int
}

// Exposition is the parsed form of one scrape.
type Exposition struct {
	Samples []Sample
	// Types and Helps map family name to the declared TYPE / HELP text.
	Types map[string]string
	Helps map[string]string
}

// Histogram reconstructs the cumulative bucket map (le -> count), sum, and
// count of the histogram series with the given family name whose labels
// (minus "le") equal sel. ok is false when no such series exists.
func (e *Exposition) Histogram(family string, sel map[string]string) (buckets map[float64]float64, sum, count float64, ok bool) {
	match := func(l map[string]string, dropLe bool) bool {
		n := 0
		for k, v := range l {
			if dropLe && k == "le" {
				continue
			}
			if sel[k] != v {
				return false
			}
			n++
		}
		return n == len(sel)
	}
	buckets = make(map[float64]float64)
	for _, s := range e.Samples {
		switch s.Name {
		case family + "_bucket":
			if match(s.Labels, true) {
				le, err := parseLe(s.Labels["le"])
				if err == nil {
					buckets[le] = s.Value
					ok = true
				}
			}
		case family + "_sum":
			if match(s.Labels, false) {
				sum = s.Value
			}
		case family + "_count":
			if match(s.Labels, false) {
				count = s.Value
				ok = true
			}
		}
	}
	return buckets, sum, count, ok
}

// QuantileFromBuckets returns an upper bound on the q-quantile implied by a
// cumulative le->count bucket map: the smallest finite upper edge at which
// the cumulative count reaches the NearestRank observation, the rule
// Histogram.Quantile uses. Returns 0 on an empty map.
func QuantileFromBuckets(buckets map[float64]float64, q float64) float64 {
	if len(buckets) == 0 {
		return 0
	}
	edges := make([]float64, 0, len(buckets))
	for le := range buckets {
		edges = append(edges, le)
	}
	sort.Float64s(edges)
	total := buckets[edges[len(edges)-1]]
	if total <= 0 {
		return 0
	}
	need := float64(NearestRank(q, int64(total)))
	var lastFinite float64
	for _, le := range edges {
		if buckets[le] >= need {
			if math.IsInf(le, 1) {
				return lastFinite
			}
			return le
		}
		if !math.IsInf(le, 1) {
			lastFinite = le
		}
	}
	return lastFinite
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && !(c >= '0' && c <= '9' && i > 0) {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && !(c >= '0' && c <= '9' && i > 0) {
			return false
		}
	}
	return true
}

// parseLabels parses `k1="v1",k2="v2"}` starting just past the '{'; returns
// the labels and the rest of the line after the '}'.
func parseLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label set: missing '='")
		}
		name := strings.TrimSpace(s[:eq])
		if !validLabelName(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		s = strings.TrimLeft(s[eq+1:], " \t")
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %s: value not quoted", name)
		}
		s = s[1:]
		var val strings.Builder
		i := 0
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("label %s: unterminated value", name)
			}
			c := s[i]
			if c == '"' {
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("label %s: dangling escape", name)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", name, s[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(c)
			i++
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("label %s repeated in one label set", name)
		}
		labels[name] = val.String()
		s = strings.TrimLeft(s[i+1:], " \t")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		return nil, "", fmt.Errorf("label set: expected ',' or '}' after label %s", name)
	}
}

// ParseExposition parses one text-format scrape. Syntax problems are
// collected per line (a bad line is skipped, parsing continues); duplicate
// HELP/TYPE declarations are also reported here since they are properties of
// the comment stream.
func ParseExposition(r io.Reader) (*Exposition, []Problem) {
	exp := &Exposition{Types: make(map[string]string), Helps: make(map[string]string)}
	var problems []Problem
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r")
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 3 && (fields[1] == "HELP" || fields[1] == "TYPE") {
				name := fields[2]
				if !validMetricName(name) {
					problems = append(problems, Problem{lineNo, fmt.Sprintf("%s for invalid metric name %q", fields[1], name)})
					continue
				}
				rest := ""
				if len(fields) == 4 {
					rest = fields[3]
				}
				if fields[1] == "HELP" {
					if _, dup := exp.Helps[name]; dup {
						problems = append(problems, Problem{lineNo, fmt.Sprintf("duplicate HELP for family %s", name)})
					}
					exp.Helps[name] = rest
				} else {
					if _, dup := exp.Types[name]; dup {
						problems = append(problems, Problem{lineNo, fmt.Sprintf("duplicate TYPE for family %s", name)})
					}
					switch rest {
					case "counter", "gauge", "histogram", "summary", "untyped":
						exp.Types[name] = rest
					default:
						problems = append(problems, Problem{lineNo, fmt.Sprintf("family %s: unknown TYPE %q", name, rest)})
					}
				}
			}
			continue
		}
		name := line
		rest := ""
		if i := strings.IndexAny(line, "{ \t"); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		if !validMetricName(name) {
			problems = append(problems, Problem{lineNo, fmt.Sprintf("invalid metric name %q", name)})
			continue
		}
		var labels map[string]string
		if strings.HasPrefix(rest, "{") {
			var err error
			labels, rest, err = parseLabels(rest[1:])
			if err != nil {
				problems = append(problems, Problem{lineNo, fmt.Sprintf("metric %s: %v", name, err)})
				continue
			}
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			problems = append(problems, Problem{lineNo, fmt.Sprintf("metric %s: expected value [timestamp], got %q", name, strings.TrimSpace(rest))})
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			problems = append(problems, Problem{lineNo, fmt.Sprintf("metric %s: bad value %q", name, fields[0])})
			continue
		}
		if len(fields) == 2 {
			if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
				problems = append(problems, Problem{lineNo, fmt.Sprintf("metric %s: bad timestamp %q", name, fields[1])})
				continue
			}
		}
		exp.Samples = append(exp.Samples, Sample{Name: name, Labels: labels, Value: v, Line: lineNo})
	}
	if err := sc.Err(); err != nil {
		problems = append(problems, Problem{0, fmt.Sprintf("read: %v", err)})
	}
	return exp, problems
}

// familyOf maps a sample name to its declared family: histogram (and
// summary) samples use suffixed names, everything else is its own family.
func (e *Exposition) familyOf(name string) string {
	if _, ok := e.Types[name]; ok {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, found := strings.CutSuffix(name, suf); found {
			if t := e.Types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return name
}

func labelsetKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

// LintExposition checks one scrape for well-formedness: metric/label name
// syntax, unique HELP/TYPE per family, TYPE declared before the family's
// samples, no duplicate (name, label set) series, and — for histograms —
// ascending le edges, monotone cumulative bucket counts, a "+Inf" bucket
// present and equal to _count, with _sum and _count series present. An empty
// slice means the exposition is clean.
func LintExposition(r io.Reader) []Problem {
	exp, problems := ParseExposition(r)

	// Duplicate series + TYPE-before-sample ordering.
	seen := make(map[string]int)
	firstSample := make(map[string]int)
	for _, s := range exp.Samples {
		key := s.Name + "|" + labelsetKey(s.Labels)
		if prev, dup := seen[key]; dup {
			problems = append(problems, Problem{s.Line, fmt.Sprintf("duplicate series %s%s (first at line %d)", s.Name, labelsetKey(s.Labels), prev)})
		} else {
			seen[key] = s.Line
		}
		fam := exp.familyOf(s.Name)
		if _, ok := firstSample[fam]; !ok {
			firstSample[fam] = s.Line
		}
		for k := range s.Labels {
			if !validLabelName(k) {
				problems = append(problems, Problem{s.Line, fmt.Sprintf("metric %s: invalid label name %q", s.Name, k)})
			}
		}
	}

	// Histogram families: group buckets by labels-minus-le.
	type group struct {
		les    []float64
		counts []float64
		lines  []int
		sum    bool
		count  float64
		hasCnt bool
	}
	groups := make(map[string]*group)
	order := []string{}
	gkey := func(fam string, labels map[string]string) string {
		l2 := make(map[string]string, len(labels))
		for k, v := range labels {
			if k != "le" {
				l2[k] = v
			}
		}
		return fam + "|" + labelsetKey(l2)
	}
	get := func(k string) *group {
		g, ok := groups[k]
		if !ok {
			g = &group{}
			groups[k] = g
			order = append(order, k)
		}
		return g
	}
	for _, s := range exp.Samples {
		fam := exp.familyOf(s.Name)
		if exp.Types[fam] != "histogram" {
			continue
		}
		switch s.Name {
		case fam + "_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				problems = append(problems, Problem{s.Line, fmt.Sprintf("histogram %s: _bucket sample without le label", fam)})
				continue
			}
			v, err := parseLe(le)
			if err != nil {
				problems = append(problems, Problem{s.Line, fmt.Sprintf("histogram %s: bad le %q", fam, le)})
				continue
			}
			g := get(gkey(fam, s.Labels))
			g.les = append(g.les, v)
			g.counts = append(g.counts, s.Value)
			g.lines = append(g.lines, s.Line)
		case fam + "_sum":
			get(gkey(fam, s.Labels)).sum = true
		case fam + "_count":
			g := get(gkey(fam, s.Labels))
			g.count = s.Value
			g.hasCnt = true
		default:
			problems = append(problems, Problem{s.Line, fmt.Sprintf("histogram family %s has non-histogram sample %s", fam, s.Name)})
		}
	}
	for _, k := range order {
		g := groups[k]
		name := strings.SplitN(k, "|", 2)[0]
		if len(g.les) == 0 {
			if g.sum || g.hasCnt {
				problems = append(problems, Problem{0, fmt.Sprintf("histogram %s: series %q has _sum/_count but no buckets", name, k)})
			}
			continue
		}
		hasInf := false
		for i := range g.les {
			if math.IsInf(g.les[i], 1) {
				hasInf = true
			}
			if i > 0 {
				if g.les[i] <= g.les[i-1] {
					problems = append(problems, Problem{g.lines[i], fmt.Sprintf("histogram %s: le edges not ascending (%v after %v)", name, g.les[i], g.les[i-1])})
				}
				if g.counts[i] < g.counts[i-1] {
					problems = append(problems, Problem{g.lines[i], fmt.Sprintf("histogram %s: cumulative bucket counts decrease (%v after %v)", name, g.counts[i], g.counts[i-1])})
				}
			}
		}
		if !hasInf {
			problems = append(problems, Problem{g.lines[len(g.lines)-1], fmt.Sprintf("histogram %s: missing +Inf bucket", name)})
		}
		if !g.sum {
			problems = append(problems, Problem{g.lines[0], fmt.Sprintf("histogram %s: missing _sum", name)})
		}
		if !g.hasCnt {
			problems = append(problems, Problem{g.lines[0], fmt.Sprintf("histogram %s: missing _count", name)})
		} else if hasInf && g.counts[len(g.counts)-1] != g.count {
			problems = append(problems, Problem{g.lines[len(g.lines)-1], fmt.Sprintf("histogram %s: +Inf bucket (%v) != _count (%v)", name, g.counts[len(g.counts)-1], g.count)})
		}
	}
	return problems
}
