package main

import (
	"context"
	"math"
	"testing"
)

// TestWorkloadsTiny runs one tiny epoch of every workload, untraced and
// traced, with all of its correctness checks.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), w, 7, 0, traced, tinySizes)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayerMetrics)
			}
			if len(res.Metrics) != want {
				t.Fatalf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), want)
			}
			if !traced {
				for _, m := range endToEnd {
					if v := res.Metrics[m.name].Value; !(v > 0) {
						t.Errorf("%s: %s = %v, want > 0", w, m.name, v)
					}
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 10}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {q2, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
		}
	}
}
