//go:build race

package topk

// raceEnabled reports whether the race detector instruments this build; the
// allocation-bound test skips then, since instrumentation allocates.
const raceEnabled = true
