package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labeled instruments: one metric family ("rankserve_requests_total") fanning
// out into series distinguished by label values ({tenant="acme",
// endpoint="topk", status="200"}). A vec owns its family's fixed label keys;
// With(values...) get-or-creates the series for one value tuple. A family
// with no label keys has exactly one series, With(), which is what
// Registry.Counter and Registry.Histogram return.
//
// Series creation takes a lock; the returned instruments are plain atomic
// Counter/Gauge/Histogram values, so hot paths that cache the series pointer
// pay no lookup at all.

// Gauge is a settable instrument (current value, not monotone). Unlike
// Counter it is NOT gated on Enabled(): gauges track states (tenant count,
// in-flight requests) whose bookkeeping must not drift with the telemetry
// switch — a request admitted while disabled still has to decrement on the
// way out.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// labelSep joins label values into a series key; two tuples alias only when
// a value itself contains 0x1f (ASCII unit separator). Endpoints, statuses
// and reasons are program constants. Tenant names are not checked for 0x1f,
// but the service labels a request with its tenant only when that tenant
// exists or the request succeeded, so at worst two real tenants could share
// a series; path segments of unknown tenants never become label values.
const labelSep = "\x1f"

func seriesKey(vec string, keys, values []string) string {
	if len(values) != len(keys) {
		panic(fmt.Sprintf("telemetry: %s expects %d label values %v, got %d",
			vec, len(keys), keys, len(values)))
	}
	return strings.Join(values, labelSep)
}

// series pairs one value tuple with its instrument.
type series[T any] struct {
	values []string
	inst   *T
}

// vec is the shared shape of CounterVec/GaugeVec/HistogramVec.
type vec[T any] struct {
	name   string
	help   string
	keys   []string
	mu     sync.Mutex
	series map[string]*series[T]
}

func newVec[T any](name, help string, keys []string) *vec[T] {
	return &vec[T]{name: name, help: help, keys: keys, series: make(map[string]*series[T])}
}

func (v *vec[T]) with(values ...string) *T {
	k := seriesKey(v.name, v.keys, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	s, ok := v.series[k]
	if !ok {
		s = &series[T]{values: append([]string(nil), values...), inst: new(T)}
		v.series[k] = s
	}
	return s.inst
}

// snapshot returns the series sorted by value tuple for deterministic
// exposition output.
func (v *vec[T]) snapshot() []*series[T] {
	v.mu.Lock()
	out := make([]*series[T], 0, len(v.series))
	for _, s := range v.series {
		out = append(out, s)
	}
	v.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return strings.Join(out[i].values, labelSep) < strings.Join(out[j].values, labelSep)
	})
	return out
}

// Each calls f with every series of the family — its label values in key
// order and its instrument — in label-value order. It is how readers sum a
// family over some of its labels.
func (v *vec[T]) Each(f func(values []string, inst *T)) {
	for _, s := range v.snapshot() {
		f(s.values, s.inst)
	}
}

// CounterVec is a counter family with fixed label keys.
type CounterVec struct{ *vec[Counter] }

// With returns the counter for the given label values (one per key, in key
// order), creating it on first use. Panics on arity mismatch.
func (v CounterVec) With(values ...string) *Counter { return v.with(values...) }

// GaugeVec is a gauge family with fixed label keys.
type GaugeVec struct{ *vec[Gauge] }

// With returns the gauge for the given label values; see CounterVec.With.
func (v GaugeVec) With(values ...string) *Gauge { return v.with(values...) }

// HistogramVec is a histogram family with fixed label keys.
type HistogramVec struct{ *vec[Histogram] }

// With returns the histogram for the given label values; see
// CounterVec.With.
func (v HistogramVec) With(values ...string) *Histogram { return v.with(values...) }

// family get-or-creates the named family in m. Re-declaring a family with
// different label keys panics: a family's schema is fixed for the life of
// the process, and a silent second schema would corrupt the exposition.
func family[T any](r *Registry, m map[string]*vec[T], name, help string, keys []string) *vec[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := m[name]
	if !ok {
		v = newVec[T](name, help, append([]string(nil), keys...))
		m[name] = v
		return v
	}
	if !slices.Equal(v.keys, keys) {
		panic(fmt.Sprintf("telemetry: family %s re-declared with keys %v (was %v)", name, keys, v.keys))
	}
	return v
}

// CounterVec returns the registry's counter family with the given name,
// creating it with the given help text and label keys on first use.
func (r *Registry) CounterVec(name, help string, keys ...string) CounterVec {
	return CounterVec{family(r, r.counters, name, help, keys)}
}

// GaugeVec returns the registry's gauge family with the given name; see
// CounterVec.
func (r *Registry) GaugeVec(name, help string, keys ...string) GaugeVec {
	return GaugeVec{family(r, r.gauges, name, help, keys)}
}

// HistogramVec returns the registry's histogram family with the given name;
// see CounterVec.
func (r *Registry) HistogramVec(name, help string, keys ...string) HistogramVec {
	return HistogramVec{family(r, r.hists, name, help, keys)}
}

// families returns one kind's families sorted by name, for deterministic
// exposition order.
func families[T any](r *Registry, m map[string]*vec[T]) []*vec[T] {
	r.mu.Lock()
	out := make([]*vec[T], 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
