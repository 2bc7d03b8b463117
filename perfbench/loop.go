package main

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// sample is one op the closed loop ran.
type sample struct {
	op       *op
	lat      time.Duration
	done     time.Duration // completion, from the start of the measured window
	measured bool          // started inside the measured window
	body     []byte        // response, checked after the loop
	err      error
	answer   any // db-topk answer, checked after the loop
}

// The machine the benchmark runs on may be shared, so a burst of outside
// load can slow any stretch of a run. Throughput and tail latency are
// therefore medians over blocks of the measured window: a disturbed block
// moves them far less than it moves a whole-run mean or percentile. A block
// spans several rounds of every client's op mix, so blocks differ by noise,
// not by the ops they ran.
const block = 5 * time.Second

// warmupFor is how long the loop runs before measuring: long enough for the
// distance cache and the allocator to reach their steady state.
func warmupFor(dur time.Duration) time.Duration {
	w := dur / 10
	if w < 2*time.Second {
		w = 2 * time.Second
	}
	return w
}

// closedLoop runs `clients` goroutines, each sending its next op only after
// the previous one completed, for a warm-up and then the measured duration.
// Ops that start inside the measured window are measured, including their
// completion after it. onMeasure, if set, runs alongside the measured
// window until it ends.
func closedLoop(dur time.Duration, next func(client int) *op, exec func(client int, o *op) sample, onMeasure func(stop <-chan struct{})) []sample {
	start := time.Now()
	measureFrom := start.Add(warmupFor(dur))
	end := measureFrom.Add(dur)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				o := next(c)
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				s := exec(c, o)
				t1 := time.Now()
				s.op, s.lat, s.done, s.measured = o, t1.Sub(t0), t1.Sub(measureFrom), !t0.Before(measureFrom)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	if onMeasure != nil {
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(time.Until(measureFrom))
			onMeasure(stop)
		}()
		time.Sleep(time.Until(end))
		close(stop)
		<-done
	}
	wg.Wait()
	var all []sample
	for c := range per {
		all = append(all, per[c]...)
	}
	return all
}

// verify runs the oracle on every sample off the timed path and counts the
// failures into the report; the first few are printed to stderr.
func verify(rep *report, samples []sample, check func(s sample) error) {
	shown := 0
	for _, s := range samples {
		err := s.err
		if err == nil {
			err = check(s)
		}
		rep.res.Attempted++
		if err != nil {
			rep.res.Failed++
			if shown < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", s.op.class(), err)
				shown++
			}
		}
	}
}

// latencyMetrics reports throughput and the median latency of the measured
// ops that pick selects, and prints their 99th percentile. The 99th
// percentile is not a metric: on these workloads it moved between runs of
// the same code by more than any bound BENCHMARK.json admits (see
// README.md).
func latencyMetrics(rep *report, samples []sample, dur time.Duration, prefix string, pick func(o *op) bool) {
	blocks := int(dur / block)
	if blocks < 1 {
		blocks = 1
	}
	blockLen := dur / time.Duration(blocks)
	done := make([]float64, blocks)
	var lat []float64
	measured := 0
	for _, s := range samples {
		if !s.measured {
			continue
		}
		measured++
		if b := int(s.done / blockLen); b < blocks {
			done[b]++
		}
		if pick(s.op) {
			lat = append(lat, ms(s.lat))
		}
	}
	rates := make([]float64, blocks)
	for b := range rates {
		rates[b] = done[b] / blockLen.Seconds()
	}
	rep.add("throughput_rps", median(rates), "1/s", measured,
		fmt.Sprintf("(median of %d %s-block rates, %.1f..%.1f; closed loop, %d client)",
			blocks, blockLen, minOf(rates), maxOf(rates), clients))
	deciles := make([]string, 9)
	for i := range deciles {
		deciles[i] = fmt.Sprintf("%.3g", quantile(lat, float64(i+1)/10))
	}
	fmt.Printf("  %s latency deciles (ms): %s\n", prefix, strings.Join(deciles, " "))
	rep.add(prefix+"_p50_ms", median(lat), "ms", len(lat), "")
	printMetric(prefix+"_p99_ms", quantile(lat, 0.99), "ms", len(lat),
		fmt.Sprintf("(printed only; %d samples above it)", len(lat)/100))
}

// infoLatency prints the median and 99th percentile of the measured ops that
// pick selects, without reporting them as metrics.
func infoLatency(samples []sample, name string, pick func(o *op) bool) {
	var lat []float64
	for _, s := range samples {
		if s.measured && pick(s.op) {
			lat = append(lat, ms(s.lat))
		}
	}
	fmt.Printf("  %s latency: p50 %.4g ms, p99 %.4g ms (%d samples)\n", name, median(lat), quantile(lat, 0.99), len(lat))
}

// rssSampler records a process's resident set every 100 ms while the
// measured window runs.
type rssSampler struct {
	pid     int
	samples []float64
	err     error
}

func (r *rssSampler) run(stop <-chan struct{}) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		v, err := procStatusMB(r.pid, "VmRSS:")
		if err != nil {
			r.err = err
			return
		}
		r.samples = append(r.samples, v)
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// report adds rss_mb, the median resident set over the measured window, and
// prints the process's high-water mark.
func (r *rssSampler) report(rep *report, who string) error {
	if r.err != nil {
		return r.err
	}
	if len(r.samples) == 0 {
		return fmt.Errorf("no resident-set samples of %s", who)
	}
	hwm, err := procStatusMB(r.pid, "VmHWM:")
	if err != nil {
		return err
	}
	rep.add("rss_mb", median(r.samples), "MB", len(r.samples),
		fmt.Sprintf("(median VmRSS of the %s while measuring; VmHWM %.1f MB)", who, hwm))
	return nil
}

// measuredOps lists the ops of the measured window, for the mix report.
func measuredOps(samples []sample) []*op {
	var ops []*op
	for _, s := range samples {
		if s.measured {
			ops = append(ops, s.op)
		}
	}
	return ops
}
