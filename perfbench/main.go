// Command perfbench runs the pspd/sociald pipeline under three
// closed-loop workloads and prints its end-to-end metrics, or, with
// --trace 1, its per-layer metrics. See README.md.
//
//	perfbench --workload hot-topic|feed|analyst --seed N --seconds S --trace 0|1
//	perfbench --steady N [--seconds S]   two interleaved sets of N runs per workload
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	psp "github.com/psp-framework/psp"
)

// endToEnd lists the bounded end-to-end metrics with their units, as
// BENCHMARK.json does.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"heap_mb", "MiB"},
	{"disk_mb", "MiB"},
}

// unbounded lists the end-to-end latencies every run measures the same
// way but no bound covers. They are wall-clock times, and on a shared
// 2-vCPU host episodes of CPU steal and disk contention from other
// tenants last minutes, so they move whole runs: the per-run medians of
// ten runs spread by more than the largest allowed bound (see
// README.md). CPU time, heap and disk do not move with them. An
// untraced run prints these figures on the line before its result,
// where the steadiness mode reads them.
var unbounded = []struct{ name, unit string }{
	{"write_ms", "ms"},
	{"read_ms", "ms"},
	{"fresh_ms", "ms"},
	{"restart_s", "s"},
}

var workloads = []string{"hot-topic", "feed", "analyst"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Unbounded holds the untraced run's unbounded figures; it is
	// printed on a line of its own, not in the result.
	Unbounded map[string]metric `json:"-"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: hot-topic, feed or analyst")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 25, "measured seconds; whole epochs run until they have passed")
	trace := flag.Int("trace", 0, "1 runs traced and profiled and prints the per-layer metrics")
	steady := flag.Int("steady", 0, "steadiness mode: two interleaved sets of this many runs of every workload")
	flag.Parse()

	if *steady > 0 {
		if err := steadiness(*steady, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runWorkload(context.Background(), *workload, *seed, *seconds, *trace == 1, fullSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res.Unbounded != nil {
		out, err := json.Marshal(map[string]any{"unbounded": res.Unbounded})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runWorkload runs whole epochs of a workload until seconds have
// passed and reports its metrics. Traced, it first runs one untraced
// epoch as the baseline of the tracing overhead.
func runWorkload(ctx context.Context, workload string, seed int64, seconds int, traced bool, sz sizes) (*result, error) {
	workdir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)
	b, err := newBench(workload, seed, sz, workdir)
	if err != nil {
		return nil, err
	}
	b.heapBase = liveHeapMiB()
	start := time.Now()
	var l *layers
	var untracedCPU float64
	if traced {
		if err := b.epoch(ctx, nil); err != nil {
			return nil, err
		}
		untracedCPU = ms(b.cpu) / float64(b.cycles)
		b.write, b.read, b.fresh, b.restart, b.cpu, b.cycles = nil, nil, nil, nil, 0, 0
		l = newLayers()
	}
	for first := true; first || time.Since(start) < time.Duration(seconds)*time.Second; first = false {
		var tracer *psp.Tracer
		if l != nil {
			l.traceReg = psp.NewMetricsRegistry()
			tracer = psp.NewTracer(psp.TracerOptions{
				Capacity: 1 << 18, SampleRate: 1, SlowThreshold: -1, Registry: l.traceReg,
			})
			l.tracer = tracer
			b.trace = l
		}
		if err := b.epoch(ctx, tracer); err != nil {
			return nil, err
		}
	}
	b.report(time.Since(start))

	res := &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if l != nil {
		values := l.perLayer(untracedCPU)
		b.addReference(values)
		for _, m := range perLayerMetrics {
			res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		}
		l.report(values)
		return res, nil
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: b.value(m.name), Unit: m.unit}
	}
	res.Unbounded = map[string]metric{}
	for _, m := range unbounded {
		res.Unbounded[m.name] = metric{Value: b.value(m.name), Unit: m.unit}
	}
	return res, nil
}

// value computes one end-to-end metric.
func (b *bench) value(name string) float64 {
	switch name {
	case "setup_s":
		return median(b.setup)
	case "read_ms":
		return median(b.read)
	case "write_ms":
		return median(b.write)
	case "fresh_ms":
		return median(b.fresh)
	case "restart_s":
		return median(b.restart)
	case "cpu_ms_per_op":
		return ms(b.cpu) / float64(b.cycles)
	case "heap_mb":
		return median(b.heap)
	case "disk_mb":
		return median(b.disk)
	}
	return 0
}

// report prints reference figures, with tails and sample counts, to
// standard error.
func (b *bench) report(elapsed time.Duration) {
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d epochs, %d cycles in %.1fs; attempted %d, failed %d\n",
		b.workload, b.seed, b.epochNum, b.cycles, elapsed.Seconds(), b.attempted, b.failed)
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"write_ms", b.write}, {"read_ms", b.read}, {"fresh_ms", b.fresh},
		{"setup_s", b.setup}, {"restart_s", b.restart}, {"heap_mb", b.heap}, {"disk_mb", b.disk}} {
		q1, q2, q3 := quartiles(s.xs)
		line := fmt.Sprintf("  %-10s q1 %9.3f  median %9.3f  q3 %9.3f  n=%d", s.name, q1, q2, q3, len(s.xs))
		if tail, v, ok := tailOf(s.xs); ok {
			line += fmt.Sprintf("  %s %9.3f", tail, v)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "  problem:", p)
	}
}

// report prints the traced run's self-time breakdown to standard error.
func (l *layers) report(values map[string]float64) {
	self := l.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: traced %d ops over %d epochs; %d spans kept, %.0f dropped; traced cpu_ms_per_op %.3f\n",
		l.ops, l.epochs, len(l.spans), values["trace.spans_dropped"], ms(l.cpu)/float64(max(l.ops, 1)))
	fmt.Fprintf(os.Stderr, "  recomputing flushes: %d spans, %d watched (%d useful), %d generations unwatched\n",
		l.recomputes, l.watched, l.useful, l.unwatched)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  self %-24s %9.3f ms  n=%.0f\n", n, self[n][0], self[n][1])
	}
}
