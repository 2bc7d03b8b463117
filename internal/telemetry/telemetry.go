// Package telemetry is the zero-dependency observability layer of the
// reproduction: one Registry of labeled counter, gauge and histogram
// families (an unlabeled instrument is a family with no label keys) with a
// JSON snapshot, an expvar publication and a Prometheus text exposition, a
// lightweight span/trace API with runtime/pprof label propagation, and the
// unified AccessAccountant that
// implements the middleware cost model of Fagin, Lotem, and Naor (counted
// sequential and random accesses) under which the paper's MEDRANK algorithm
// is instance optimal.
//
// The layer has two regimes:
//
//   - Gated instrumentation (counters, histograms, spans, pprof labels) is
//     active only while Enabled() reports true. The disabled path is a single
//     atomic load and performs no allocation, so the zero-allocation metric
//     kernels stay at 0 allocs/op with telemetry compiled in. Enable
//     telemetry programmatically (Enable), or for a whole test run by setting
//     RANKTIES_TELEMETRY=1 in the environment.
//
//   - Always-on cost accounting (AccessAccountant) is part of the engines'
//     semantics, not optional instrumentation: MEDRANK's access statistics
//     are an experimental result of the paper, so they are counted whether or
//     not telemetry is enabled.
package telemetry

import (
	"os"
	"sync/atomic"
)

// EnvVar is the environment variable that, when set to "1", enables
// telemetry at process start. CI uses it to run the telemetry-enabled test
// variant without code changes.
const EnvVar = "RANKTIES_TELEMETRY"

var enabled atomic.Bool

func init() {
	if os.Getenv(EnvVar) == "1" {
		enabled.Store(true)
	}
}

// Enabled reports whether gated instrumentation is active. It is a single
// atomic load, safe to call on any hot path.
func Enabled() bool { return enabled.Load() }

// Enable turns gated instrumentation on.
func Enable() { enabled.Store(true) }

// Disable turns gated instrumentation off. Counter values already recorded
// are retained; see Registry.Reset to clear them.
func Disable() { enabled.Store(false) }
