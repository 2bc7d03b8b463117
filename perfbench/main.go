// Command perfbench is the repository's benchmark. It runs one named
// workload against the real system, checks every answer against an offline
// oracle, and prints the workload's metrics:
//
//	perfbench -rankserve PATH --workload serve-topk --seed 1 --seconds 10 --trace 0
//
// The serving workloads (serve-topk, serve-mixed) start cmd/rankserve as a
// child process and drive it over loopback from one closed-loop client, so
// the client's goroutines and garbage stay out of the server's numbers.
// db-topk calls internal/db in process from one goroutine. With --trace 0 the
// run measures the end-to-end metrics; with --trace 1 it instead replays a
// fixed sample of the workload's ops serially, one layer at a time, and
// reports per-layer metrics (see trace.go).
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The exit status is non-zero when any answer fails its oracle check or the
// run cannot be carried out. run.sh builds the program and rankserve from
// the checkout's sources and calls it with -rankserve set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

const (
	// One closed-loop client, so one server connection. Two clients kept
	// both vCPUs of a 2-vCPU machine busy with the server alone, and their
	// numbers swung with how the host scheduled its neighbours.
	clients     = 1
	setupReps   = 5 // server set-ups per run; setup_s is their median
	dbSetupReps = 9 // CSV loads per db-topk run, which are cheaper
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON document printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each on its own line with its unit and
// the number of samples behind it.
type report struct {
	res result
}

func newReport() *report {
	return &report{res: result{Metrics: map[string]metric{}}}
}

func (r *report) add(name string, value float64, unit string, samples int, note string) {
	r.res.Metrics[name] = metric{Value: value, Unit: unit}
	printMetric(name, value, unit, samples, note)
}

// printMetric prints one figure without reporting it in the result.
func printMetric(name string, value float64, unit string, samples int, note string) {
	line := fmt.Sprintf("%-32s %14.6g %-6s samples=%d", name, value, unit, samples)
	if note != "" {
		line += "  " + note
	}
	fmt.Println(line)
}

// countClasses prints, for each mix cell, how many measured ops ran and
// their share of the measured op time, so a drifting mix or one cell
// dominating the run shows in the output.
func countClasses(samples []sample) {
	lats := map[string][]float64{}
	times := map[string]time.Duration{}
	var total time.Duration
	for _, s := range samples {
		if s.measured {
			lats[s.op.class()] = append(lats[s.op.class()], ms(s.lat))
			times[s.op.class()] += s.lat
			total += s.lat
		}
	}
	keys := make([]string, 0, len(lats))
	for k := range lats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s ops=%-6d time_share=%.3f p50_ms=%.4g\n", k, len(lats[k]), ratio(float64(times[k]), float64(total)), median(lats[k]))
	}
}

func main() {
	workload := flag.String("workload", "", "serve-topk, serve-mixed or db-topk")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured duration of the closed loop")
	trace := flag.Int("trace", 0, "1 replays a fixed op sample layer by layer and reports per-layer metrics")
	rankserve := flag.String("rankserve", "", "rankserve binary the serving workloads start")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *rankserve); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, dur time.Duration, traced bool, rankserve string) error {
	if dur <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if strings.HasPrefix(workload, "serve-") && rankserve == "" {
		return fmt.Errorf("workload %s needs -rankserve", workload)
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", workload, seed, dur.Seconds(), traced)
	rep := newReport()
	var err error
	switch {
	case workload == "db-topk" && traced:
		err = traceDB(rep, seed)
	case workload == "db-topk":
		err = runDB(rep, seed, dur)
	case traced && (workload == "serve-topk" || workload == "serve-mixed"):
		err = traceServe(rep, workload, seed, rankserve)
	case workload == "serve-topk" || workload == "serve-mixed":
		err = runServe(rep, workload, seed, dur, rankserve)
	default:
		return fmt.Errorf("unknown workload %q (want serve-topk, serve-mixed or db-topk)", workload)
	}
	if err != nil {
		return err
	}
	rep.res.Correct = rep.res.Failed == 0
	out, err := json.Marshal(rep.res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !rep.res.Correct {
		os.Exit(1)
	}
	return nil
}
