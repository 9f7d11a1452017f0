package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	psp "github.com/psp-framework/psp"
)

// client is the benchmark's single closed-loop caller. When span is
// non-nil the request carries it as W3C traceparent, so the server
// spans join the benchmark's trace.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Timeout: 60 * time.Second}}
}

func (c *client) do(ctx context.Context, span *psp.Span, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span != nil {
		req.Header.Set(psp.TraceparentHeader, "00-"+span.TraceID+"-"+span.SpanID+"-01")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	return resp.StatusCode, data, nil
}

func (c *client) get(ctx context.Context, url string) (int, []byte, error) {
	return c.do(ctx, nil, http.MethodGet, url, nil)
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
// The first collection moves sync.Pool contents to the pools' victim
// caches, where they stay live; the second frees them, so the reading
// does not depend on which pooled buffers happened to be cached.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// runtimeCounters reads the GC CPU and cumulative heap allocation
// counters of runtime/metrics.
func runtimeCounters() (gcCPU time.Duration, allocBytes uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = time.Duration(s[0].Value.Float64() * 1e9)
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		allocBytes = s[1].Value.Uint64()
	}
	return gcCPU, allocBytes
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(values, n=4) (method "exclusive") computes them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// percentile returns the p-th percentile (0..100) by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// tailOf reports the highest of p75/p90/p99 that has at least ten
// samples beyond it, for reference output; ok is false below forty
// samples, where no percentile is a tail.
func tailOf(xs []float64) (name string, v float64, ok bool) {
	n := len(xs)
	switch {
	case n >= 1000:
		return "p99", percentile(xs, 99), true
	case n >= 100:
		return "p90", percentile(xs, 90), true
	case n >= 40:
		return "p75", percentile(xs, 75), true
	}
	return "", 0, false
}
