package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) of a Registry.
//
// Mapping for base-2 histograms: internal bucket i holds observations v with
// bits.Len64(v) == i, i.e. the half-open range [2^(i-1), 2^i). Prometheus
// buckets are cumulative and keyed by inclusive upper bound `le`, so bucket i
// is rendered with le = 2^i - 1 (bucket 0, which holds only v == 0, gets
// le="0"). Buckets are emitted up to the highest non-empty one, then "+Inf".
// To keep each scrape internally consistent without a registry-wide lock,
// "+Inf" and `_count` are both computed as the sum of the bucket loads from
// this scrape (the atomic `count` field could be mid-update relative to the
// buckets).

// promName sanitizes an internal instrument name ("span.topk.medrank") into
// a Prometheus metric name ([a-zA-Z_:][a-zA-Z0-9_:]*): every other rune
// becomes '_', and a leading digit is prefixed with '_'.
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 1)
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if c >= '0' && c <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(c)
			continue
		}
		if ok {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// formatLabels renders {k1="v1",k2="v2"} (empty string for no labels).
func formatLabels(keys, values []string) string {
	if len(keys) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(promName(k))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// bucketEdge returns the `le` value of internal bucket i: the inclusive
// upper bound 2^i - 1 ("0" for bucket 0).
func bucketEdge(i int) string {
	if i <= 0 {
		return "0"
	}
	return fmt.Sprintf("%d", uint64(1)<<uint(i)-1)
}

// writePromHistogram renders one histogram series. labels is the rendered
// label set ("" for none); `le` is appended inside it.
func writePromHistogram(w io.Writer, name, labels string, h *Histogram) error {
	open := "{"
	if labels != "" {
		open = labels[:len(labels)-1] + ","
	}
	hi := 0
	var loads [histBuckets]int64
	for i := 0; i < histBuckets; i++ {
		loads[i] = h.buckets[i].Load()
		if loads[i] > 0 {
			hi = i
		}
	}
	var cum int64
	for i := 0; i <= hi; i++ {
		cum += loads[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"%s\"} %d\n", name, open, bucketEdge(i), cum); err != nil {
			return err
		}
	}
	total := cum
	for i := hi + 1; i < histBuckets; i++ {
		total += loads[i]
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", name, open, total); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, labels, h.sum.Load()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, total)
	return err
}

// WritePrometheus renders every family in the registry under the name
// prefix + sanitized family name: counters, then gauges, then histograms
// (with the base-2 bucket mapping described above), families in name order
// and each family's series sorted by label values. A family registered
// without help text — an unlabeled Counter or Histogram — gets help
// generated from its name.
func (r *Registry) WritePrometheus(w io.Writer, prefix string) error {
	for _, v := range families(r, r.counters) {
		if err := writeScalars(w, prefix, "counter", "Counter %q.", v); err != nil {
			return err
		}
	}
	for _, v := range families(r, r.gauges) {
		if err := writeScalars(w, prefix, "gauge", "Gauge %q.", v); err != nil {
			return err
		}
	}
	for _, v := range families(r, r.hists) {
		pn := promName(prefix + v.name)
		if err := writeHeader(w, pn, "histogram", "Base-2 histogram %q (ns or units).", v.name, v.help); err != nil {
			return err
		}
		for _, s := range v.snapshot() {
			if err := writePromHistogram(w, pn, formatLabels(v.keys, s.values), s.inst); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHeader writes a family's HELP and TYPE lines; an empty help is
// generated from defaultHelp, a format taking the family name.
func writeHeader(w io.Writer, pn, typ, defaultHelp, name, help string) error {
	if help == "" {
		help = fmt.Sprintf(defaultHelp, name)
	}
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", pn, help, pn, typ)
	return err
}

// writeScalars renders a counter or gauge family: one sample per series.
func writeScalars[T any, PT interface {
	*T
	Value() int64
}](w io.Writer, prefix, typ, defaultHelp string, v *vec[T]) error {
	pn := promName(prefix + v.name)
	if err := writeHeader(w, pn, typ, defaultHelp, v.name, v.help); err != nil {
		return err
	}
	for _, s := range v.snapshot() {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", pn, formatLabels(v.keys, s.values), PT(s.inst).Value()); err != nil {
			return err
		}
	}
	return nil
}
