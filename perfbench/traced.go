package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	psp "github.com/psp-framework/psp"
)

// layers accumulates what the traced epochs observe, layer by layer.
// All of its methods are no-ops on a nil receiver, so untraced epochs
// pay nothing for them.
type layers struct {
	tracer   *psp.Tracer
	traceReg *psp.MetricsRegistry

	epochs      int
	ops         int
	cpu         time.Duration
	gcCPU       time.Duration
	alloc       uint64
	moduleNs    map[string]float64
	spans       []*psp.Span
	fresh, read []window
	metrics     map[string]float64 // summed deltas of metric series over the loops

	walBytes, posts       int64
	stateBytes            int64
	recomputes            int // monitor.flush spans that recomputed
	watched, useful       int // recomputing generations seen, and those that changed the result
	unwatched             int // generations the watcher did not see follow their predecessor
	pageBytes             int64
	pages                 int
	walAppends, walFsyncs uint64
	compactions           uint64
	compactBytes          int64
	ratingCalls           uint64
	snapPosts, snapIndex  []float64 // MiB after a clean close
	recoveryIndex, replay []float64 // ms per restart
	writeMs, freshMs      []float64 // traced write and fresh latencies
}

// window is one timed operation whose coverage by program spans the
// trace analysis measures.
type window struct {
	traceID    string
	start, end time.Time
	write      time.Duration // the write's own latency, for write→fresh windows
	tenant     string        // analyst writes: the tenant whose tara.rate spans count
}

func newLayers() *layers {
	return &layers{moduleNs: map[string]float64{}, metrics: map[string]float64{}}
}

// loopTrace observes one epoch's measured loop.
type loopTrace struct {
	l      *layers
	p      *pspd
	socs   []*sociald
	t0     time.Time
	before map[string]float64
	prof   bytes.Buffer
	cpu0   time.Duration
	gc0    time.Duration
	alloc0 uint64
	wal0   map[string]int64
	walMax map[string]int64
	state  os.FileInfo
	served int64
	apps0  uint64
	fsync0 uint64
	comp0  uint64
	cbytes int64
	calls0 uint64
	posts0 uint64
	ops    int

	stopWatch context.CancelFunc
	watchDone chan struct{}
}

// beginLoop starts observing a measured loop; nil when untraced.
func (b *bench) beginLoop(p *pspd, socs []*sociald) *loopTrace {
	l := b.trace
	if l == nil {
		return nil
	}
	lt := &loopTrace{l: l, p: p, socs: socs, t0: time.Now()}
	lt.before = lt.snapshot()
	lt.wal0 = walFiles(p.dir)
	lt.walMax = map[string]int64{}
	lt.state, _ = os.Stat(filepath.Join(p.dir, "monitor.json"))
	for _, s := range socs {
		lt.served += s.served.Load()
	}
	wal := p.storeMet.WAL
	lt.apps0, lt.fsync0 = wal.Appends.Value(), wal.Fsyncs.Value()
	lt.comp0 = p.storeMet.Compactions.Value()
	lt.cbytes = p.store.Stats().CompactionBytes
	lt.calls0 = p.tm.Registry().Stats().RatingCalls
	lt.posts0 = p.storeMet.AddedPosts.Value()
	lt.gc0, lt.alloc0 = runtimeCounters()
	var ctx context.Context
	ctx, lt.stopWatch = context.WithCancel(context.Background())
	lt.watchDone = make(chan struct{})
	go lt.watchFlushes(ctx, p.mon)
	if err := pprof.StartCPUProfile(&lt.prof); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
	}
	lt.cpu0 = cpuTime()
	return lt
}

// watchFlushes follows every assessment the monitor publishes during
// the loop. Every flush publishes one generation, marked Recomputed when
// it re-ran the workflow; such a flush was useful when its index or
// tunings differ from the generation before it. Numerator and
// denominator count the same generations: one that the watcher did not
// see follow its predecessor is left out of both.
func (lt *loopTrace) watchFlushes(ctx context.Context, m *psp.Monitor) {
	defer close(lt.watchDone)
	prev := m.Assessment()
	if prev == nil {
		return
	}
	prevSum := summarize(prev.Result)
	for {
		a, err := m.WaitFor(ctx, prev.Generation+1)
		if err != nil {
			return
		}
		sum := prevSum
		if a.Result != prev.Result {
			sum = summarize(a.Result)
		}
		switch {
		case a.Generation != prev.Generation+1:
			lt.l.unwatched++
		case a.Recomputed:
			lt.l.watched++
			if sum != prevSum {
				lt.l.useful++
			}
		}
		prev, prevSum = a, sum
	}
}

// op opens a benchmark span around one public call.
func (lt *loopTrace) op(name string) (*psp.Span, func()) {
	if lt == nil {
		return nil, func() {}
	}
	_, span := lt.l.tracer.Start(context.Background(), name)
	return span, span.End
}

// opCtx is op for calls that take the span through a context.
func (lt *loopTrace) opCtx(ctx context.Context, name string) (context.Context, *psp.Span, func()) {
	if lt == nil {
		return ctx, nil, func() {}
	}
	ctx, span := lt.l.tracer.Start(ctx, name)
	return ctx, span, span.End
}

// window records a write→fresh interval.
func (lt *loopTrace) window(span *psp.Span, start time.Time, write, fresh time.Duration, tenant string) {
	if lt == nil {
		return
	}
	lt.l.fresh = append(lt.l.fresh, window{traceID: span.TraceID, start: start, end: start.Add(fresh), write: write, tenant: tenant})
}

// readWindow records one federated page read.
func (lt *loopTrace) readWindow(span *psp.Span, start time.Time, d time.Duration) {
	if lt == nil {
		return
	}
	lt.l.read = append(lt.l.read, window{traceID: span.TraceID, start: start, end: start.Add(d)})
	lt.l.pages++
}

// afterCycle samples the files a cycle rewrites: WAL segments and the
// monitor's state file.
func (lt *loopTrace) afterCycle() {
	if lt == nil {
		return
	}
	lt.ops++
	for name, size := range walFiles(lt.p.dir) {
		if size > lt.walMax[name] {
			lt.walMax[name] = size
		}
	}
	st, err := os.Stat(filepath.Join(lt.p.dir, "monitor.json"))
	if err == nil && (lt.state == nil || !st.ModTime().Equal(lt.state.ModTime()) || st.Size() != lt.state.Size()) {
		lt.l.stateBytes += st.Size()
		lt.state = st
	}
}

// end closes the loop's observation and folds it into the layers.
func (lt *loopTrace) end() {
	if lt == nil {
		return
	}
	l := lt.l
	l.cpu += cpuTime() - lt.cpu0
	pprof.StopCPUProfile()
	lt.stopWatch()
	<-lt.watchDone
	t1 := time.Now()
	gc1, alloc1 := runtimeCounters()
	l.gcCPU += gc1 - lt.gc0
	l.alloc += alloc1 - lt.alloc0
	l.ops += lt.ops
	l.epochs++
	if mods, err := moduleCPU(lt.prof.Bytes()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	} else {
		for m, ns := range mods {
			l.moduleNs[m] += ns
		}
	}
	after := lt.snapshot()
	for k, v := range after {
		l.metrics[k] += v - lt.before[k]
	}
	for _, s := range l.tracer.Spans(0) {
		if !s.Start.Before(lt.t0) && s.Start.Before(t1) {
			l.spans = append(l.spans, s)
		}
	}
	for name, size := range lt.walMax {
		l.walBytes += size - lt.wal0[name]
	}
	var served int64
	for _, s := range lt.socs {
		served += s.served.Load()
	}
	l.pageBytes += served - lt.served
	wal := lt.p.storeMet.WAL
	l.walAppends += wal.Appends.Value() - lt.apps0
	l.walFsyncs += wal.Fsyncs.Value() - lt.fsync0
	l.compactions += lt.p.storeMet.Compactions.Value() - lt.comp0
	l.compactBytes += lt.p.store.Stats().CompactionBytes - lt.cbytes
	l.ratingCalls += lt.p.tm.Registry().Stats().RatingCalls - lt.calls0
	l.posts += int64(lt.p.storeMet.AddedPosts.Value() - lt.posts0)
}

// snapshot reads every metric series of the loop's processes, keyed by
// process and series.
func (lt *loopTrace) snapshot() map[string]float64 {
	out := map[string]float64{}
	read := func(proc string, reg *psp.MetricsRegistry) {
		var buf bytes.Buffer
		if err := psp.WriteMetrics(&buf, reg); err != nil {
			return
		}
		parseMetrics(proc, &buf, out)
	}
	read("pspd", lt.p.reg)
	read("trace", lt.l.traceReg)
	for i, s := range lt.socs {
		read(fmt.Sprintf("sociald%d", i), s.reg)
	}
	return out
}

// parseMetrics parses Prometheus text lines into out["proc:series"].
func parseMetrics(proc string, r io.Reader, out map[string]float64) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[proc+":"+line[:i]] = v
	}
}

// walFiles lists the WAL segment sizes of a data directory.
func walFiles(dir string) map[string]int64 {
	out := map[string]int64{}
	_ = filepath.Walk(filepath.Join(dir, "wal"), func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			out[path] = info.Size()
		}
		return nil
	})
	return out
}

// afterClose records the snapshot footprint of a cleanly closed pspd.
func (l *layers) afterClose(dir string) {
	if l == nil {
		return
	}
	var posts, index int64
	_ = filepath.Walk(filepath.Join(dir, "snap"), func(path string, info os.FileInfo, err error) error {
		if err != nil || !info.Mode().IsRegular() {
			return nil
		}
		switch filepath.Ext(path) {
		case ".idx":
			index += info.Size()
		default:
			posts += info.Size()
		}
		return nil
	})
	l.snapPosts = append(l.snapPosts, float64(posts)/(1<<20))
	l.snapIndex = append(l.snapIndex, float64(index)/(1<<20))
}

// afterRestart records the recovery phases of a reopened pspd store.
func (l *layers) afterRestart(met *psp.SocialStoreMetrics) {
	if l == nil {
		return
	}
	l.recoveryIndex = append(l.recoveryIndex, met.RecoveryIndexSeconds.Value()*1e3)
	l.replay = append(l.replay, met.RecoveryReplaySeconds.Value()*1e3)
}

// seriesMean is the mean of a histogram series over the loops, in ms.
func (l *layers) seriesMean(proc, name, labels string) float64 {
	sum := l.metrics[proc+":"+name+"_sum{"+labels+"}"]
	n := l.metrics[proc+":"+name+"_count{"+labels+"}"]
	if n == 0 {
		return 0
	}
	return sum / n * 1e3
}

// spanMean is the mean duration of a span name over the loops, in ms
// (psp_trace_span_seconds records every finished span).
func (l *layers) spanMean(name string) float64 {
	return l.seriesMean("trace", "psp_trace_span_seconds", `span="`+name+`"`)
}

func (l *layers) spanCount(name string) float64 {
	return l.metrics[`trace:psp_trace_spans_total{span="`+name+`"}`]
}

func attrInt(s *psp.Span, key string) (int64, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			v, err := strconv.ParseInt(a.Value, 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

func attr(s *psp.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// interval is a [start, end) span of wall time.
type interval struct{ a, b time.Time }

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv []interval, lo, hi time.Time) time.Duration {
	var clip []interval
	for _, x := range iv {
		a, b := x.a, x.b
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if a.Before(b) {
			clip = append(clip, interval{a, b})
		}
	}
	sort.Slice(clip, func(i, j int) bool { return clip[i].a.Before(clip[j].a) })
	var total time.Duration
	var cur interval
	for i, x := range clip {
		if i == 0 || x.a.After(cur.b) {
			if i > 0 {
				total += cur.b.Sub(cur.a)
			}
			cur = x
			continue
		}
		if x.b.After(cur.b) {
			cur.b = x.b
		}
	}
	if len(clip) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

func spanInterval(s *psp.Span) interval { return interval{s.Start, s.Start.Add(s.Duration)} }

// selfTimes returns, per span name, the mean self time in ms (the
// span's duration minus the part its children cover) and the count.
func (l *layers) selfTimes() map[string][2]float64 {
	children := map[string][]interval{}
	for _, s := range l.spans {
		if s.ParentID != "" {
			children[s.TraceID+"/"+s.ParentID] = append(children[s.TraceID+"/"+s.ParentID], spanInterval(s))
		}
	}
	sum := map[string][2]float64{}
	for _, s := range l.spans {
		iv := spanInterval(s)
		self := s.Duration - covered(children[s.TraceID+"/"+s.SpanID], iv.a, iv.b)
		v := sum[s.Name]
		v[0] += ms(self)
		v[1]++
		sum[s.Name] = v
	}
	for k, v := range sum {
		v[0] /= v[1]
		sum[k] = v
	}
	return sum
}

// unaccounted returns the share of the windows' total time that no
// program span covers: for each window, the spans of its trace (except
// the benchmark's own) plus, for a TARA write, the tenant's tara.rate
// spans inside the window.
func (l *layers) unaccounted(ws []window) float64 {
	byTrace := map[string][]*psp.Span{}
	var rates []*psp.Span
	for _, s := range l.spans {
		if strings.HasPrefix(s.Name, "bench.") {
			continue
		}
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
		if s.Name == "tara.rate" {
			rates = append(rates, s)
		}
	}
	var total, open time.Duration
	for _, w := range ws {
		var iv []interval
		for _, s := range byTrace[w.traceID] {
			iv = append(iv, spanInterval(s))
		}
		if w.tenant != "" {
			for _, s := range rates {
				if attr(s, "tenant") == w.tenant && !s.Start.Before(w.start) && s.Start.Before(w.end) {
					iv = append(iv, spanInterval(s))
				}
			}
		}
		d := w.end.Sub(w.start)
		total += d
		open += d - covered(iv, w.start, w.end)
	}
	if total == 0 {
		return 0
	}
	return float64(open) / float64(total)
}

// flushWait is the mean over write→fresh windows of the time neither
// the write nor a monitor flush of its trace was running: fresh − write
// − flush, the debounce and hand-off waits.
func (l *layers) flushWait() float64 {
	flush := map[string]time.Duration{}
	for _, s := range l.spans {
		if s.Name == "monitor.flush" {
			flush[s.TraceID] += s.Duration
		}
	}
	var sum time.Duration
	n := 0
	for _, w := range l.fresh {
		f, ok := flush[w.traceID]
		if !ok {
			continue
		}
		sum += w.end.Sub(w.start) - w.write - f
		n++
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

// perLayer derives the per-layer metrics. untracedCPU is cpu_ms_per_op
// of an untraced epoch of the same invocation.
func (l *layers) perLayer(untracedCPU float64) map[string]float64 {
	out := map[string]float64{}
	ops := float64(l.ops)
	if ops == 0 {
		ops = 1
	}
	perOp := func(ns float64) float64 { return ns / 1e6 / ops }
	epochs := float64(l.epochs)
	if epochs == 0 {
		epochs = 1
	}

	// Per-module CPU from the profiles.
	for _, m := range []string{"monitor", "core", "nlp", "sai", "social", "durable", "tara", "obs", "runtime", "other"} {
		out[m+".cpu_ms_per_op"] = perOp(l.moduleNs[m])
	}

	// monitor
	var flushes, invalidated, rescored float64
	flushIDs := map[string]bool{}
	for _, s := range l.spans {
		if s.Name != "monitor.flush" {
			continue
		}
		flushes++
		flushIDs[s.TraceID+"/"+s.SpanID] = true
		if v, ok := attrInt(s, "invalidated_fills"); ok {
			invalidated += float64(v)
		}
		if attr(s, "recomputed") == "true" {
			l.recomputes++
		}
	}
	for _, s := range l.spans {
		if s.Name == "store.search" && flushIDs[s.TraceID+"/"+s.ParentID] {
			if v, ok := attrInt(s, "posts"); ok {
				rescored += float64(v)
			}
		}
	}
	out["monitor.ingest_server_ms"] = l.seriesMean("pspd", "psp_http_request_seconds", `route="/v1/posts"`)
	out["monitor.flush_ms"] = l.spanMean("monitor.flush")
	out["monitor.flush_wait_ms"] = l.flushWait()
	out["monitor.useful_recompute_ratio"] = 0
	out["monitor.state_kb_per_flush"] = 0
	if l.watched > 0 {
		out["monitor.useful_recompute_ratio"] = float64(l.useful) / float64(l.watched)
	}
	if l.recomputes > 0 {
		out["monitor.state_kb_per_flush"] = float64(l.stateBytes) / 1024 / float64(l.recomputes)
	}
	out["core.invalidated_fills_per_flush"] = 0
	out["core.rescored_posts_per_flush"] = 0
	if flushes > 0 {
		out["core.invalidated_fills_per_flush"] = invalidated / flushes
		out["core.rescored_posts_per_flush"] = rescored / flushes
	}

	// social
	var searches, scanned, stripes float64
	for _, s := range l.spans {
		if s.Name != "store.search" {
			continue
		}
		searches++
		if v, ok := attrInt(s, "scanned"); ok {
			scanned += float64(v)
		}
		if v, ok := attrInt(s, "stripes"); ok {
			stripes += float64(v)
		}
	}
	out["social.add_ms"] = l.spanMean("store.add")
	out["social.search_ms"] = l.spanMean("store.search")
	out["social.postings_scanned_per_search"] = 0
	out["social.stripes_per_search"] = 0
	if searches > 0 {
		out["social.postings_scanned_per_search"] = scanned / searches
		out["social.stripes_per_search"] = stripes / searches
	}
	out["social.backend_ms"] = l.spanMean("multi.backend")
	out["social.backend_calls_per_page"] = 0
	out["social.page_kb"] = 0
	if n := l.spanCount("multi.search"); n > 0 {
		out["social.backend_calls_per_page"] = l.spanCount("multi.backend") / n
	}
	if l.pages > 0 {
		out["social.page_kb"] = float64(l.pageBytes) / 1024 / float64(l.pages)
	}

	// durable
	out["durable.wal_append_ms"] = l.spanMean("wal.append")
	out["durable.records_per_fsync"] = 0
	if l.walFsyncs > 0 {
		out["durable.records_per_fsync"] = float64(l.walAppends) / float64(l.walFsyncs)
	}
	out["durable.wal_bytes_per_post"] = 0
	if l.posts > 0 {
		out["durable.wal_bytes_per_post"] = float64(l.walBytes) / float64(l.posts)
	}
	out["durable.compactions"] = float64(l.compactions) / epochs
	out["durable.compact_mb"] = float64(l.compactBytes) / (1 << 20) / epochs
	out["durable.snapshot_posts_mb"] = median(l.snapPosts)
	out["durable.snapshot_index_mb"] = median(l.snapIndex)
	out["durable.recovery_index_ms"] = median(l.recoveryIndex)
	out["durable.recovery_replay_ms"] = median(l.replay)

	// tara
	out["tara.rate_ms"] = l.spanMean("tara.rate")
	out["tara.rating_calls_per_op"] = float64(l.ratingCalls) / ops
	out["tara.tenant_server_ms"] = l.seriesMean("pspd", "psp_http_request_seconds", `route="/v1/tara/{tenant}"`)

	// obs and runtime
	traced := ms(l.cpu) / ops
	out["obs.trace_cpu_ms_per_op"] = traced - untracedCPU
	out["runtime.gc_cpu_ms_per_op"] = ms(l.gcCPU) / ops
	out["runtime.alloc_mb_per_op"] = float64(l.alloc) / (1 << 20) / ops

	// Trace coverage of the blocking steps.
	out["trace.fresh_unaccounted_share"] = l.unaccounted(l.fresh)
	out["trace.read_unaccounted_share"] = l.unaccounted(l.read)
	out["trace.spans_dropped"] = l.metrics["trace:psp_trace_spans_dropped_total"]
	return out
}

// addReference adds the unbounded end-to-end timings of the traced
// epochs.
func (b *bench) addReference(out map[string]float64) {
	out["ref.write_ms"] = median(b.write)
	out["ref.read_ms"] = median(b.read)
	out["ref.fresh_ms"] = median(b.fresh)
	out["ref.restart_s"] = median(b.restart)
}

// perLayerMetrics lists every per-layer metric with its unit and
// better direction, in BENCHMARK.json order.
var perLayerMetrics = []struct{ name, unit, better string }{
	{"monitor.ingest_server_ms", "ms", "lower"},
	{"monitor.flush_ms", "ms", "lower"},
	{"monitor.flush_wait_ms", "ms", "lower"},
	{"monitor.useful_recompute_ratio", "ratio", "higher"},
	{"monitor.state_kb_per_flush", "KiB", "lower"},
	{"monitor.cpu_ms_per_op", "ms", "lower"},
	{"core.invalidated_fills_per_flush", "count", "lower"},
	{"core.rescored_posts_per_flush", "count", "lower"},
	{"core.cpu_ms_per_op", "ms", "lower"},
	{"nlp.cpu_ms_per_op", "ms", "lower"},
	{"sai.cpu_ms_per_op", "ms", "lower"},
	{"social.add_ms", "ms", "lower"},
	{"social.search_ms", "ms", "lower"},
	{"social.postings_scanned_per_search", "count", "lower"},
	{"social.stripes_per_search", "count", "lower"},
	{"social.backend_ms", "ms", "lower"},
	{"social.backend_calls_per_page", "count", "lower"},
	{"social.page_kb", "KiB", "lower"},
	{"social.cpu_ms_per_op", "ms", "lower"},
	{"durable.wal_append_ms", "ms", "lower"},
	{"durable.records_per_fsync", "count", "higher"},
	{"durable.wal_bytes_per_post", "B", "lower"},
	{"durable.compactions", "count", "lower"},
	{"durable.compact_mb", "MiB", "lower"},
	{"durable.snapshot_posts_mb", "MiB", "lower"},
	{"durable.snapshot_index_mb", "MiB", "lower"},
	{"durable.recovery_index_ms", "ms", "lower"},
	{"durable.recovery_replay_ms", "ms", "lower"},
	{"durable.cpu_ms_per_op", "ms", "lower"},
	{"tara.rate_ms", "ms", "lower"},
	{"tara.rating_calls_per_op", "count", "lower"},
	{"tara.tenant_server_ms", "ms", "lower"},
	{"tara.cpu_ms_per_op", "ms", "lower"},
	{"obs.cpu_ms_per_op", "ms", "lower"},
	{"obs.trace_cpu_ms_per_op", "ms", "lower"},
	{"runtime.gc_cpu_ms_per_op", "ms", "lower"},
	{"runtime.alloc_mb_per_op", "MiB", "lower"},
	{"runtime.cpu_ms_per_op", "ms", "lower"},
	{"other.cpu_ms_per_op", "ms", "lower"},
	{"trace.fresh_unaccounted_share", "ratio", "lower"},
	{"trace.read_unaccounted_share", "ratio", "lower"},
	{"trace.spans_dropped", "count", "lower"},
	{"ref.write_ms", "ms", "lower"},
	{"ref.read_ms", "ms", "lower"},
	{"ref.fresh_ms", "ms", "lower"},
	{"ref.restart_s", "s", "lower"},
}
