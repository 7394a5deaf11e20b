package main

import (
	"math"
	"testing"
)

func TestHistQuantile(t *testing.T) {
	var a, b hist
	for v := int64(1); v <= 100000; v++ {
		if v%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
	}
	a.merge(&b)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got, want := a.quantile(q), q*100000
		if math.Abs(got/want-1) > 0.02 {
			t.Errorf("quantile(%v) = %.0f, want %.0f within 2%%", q, got, want)
		}
	}
	for _, v := range []int64{0, 1, 127, 128, 1 << 20, 1 << 40, 1 << 62} {
		lo, width := histRange(histBucket(v))
		if idx := histBucket(v); idx < histBuckets-1 && (float64(v) < lo || float64(v) >= lo+width) {
			t.Errorf("value %d outside its bucket [%v, %v)", v, lo, lo+width)
		}
	}
}
