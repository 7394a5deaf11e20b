package main

import (
	"sort"
	"time"
)

// epoch anchors now, the benchmark's monotonic clock.
var epoch = time.Now()

// now returns monotonic nanoseconds since the program started.
func now() int64 { return int64(time.Since(epoch)) }

// recorder collects one load generator's completed operations and
// their latencies, split into equal windows of the measured interval.
// Each end-to-end figure is computed per window and the median across
// windows is reported, so a stall of a few hundred milliseconds moves
// one window, not the result.
type recorder struct {
	start, winLen     int64
	ops               []uint64
	get, set          []hist
	attempted, failed uint64
}

func newRecorder(start, winLen int64, windows int) *recorder {
	return &recorder{
		start:  start,
		winLen: winLen,
		ops:    make([]uint64, windows),
		get:    make([]hist, windows),
		set:    make([]hist, windows),
	}
}

// window returns the window index of time t, or -1 outside the
// measured interval.
func (r *recorder) window(t int64) int {
	if t < r.start {
		return -1
	}
	w := int((t - r.start) / r.winLen)
	if w >= len(r.ops) {
		return -1
	}
	return w
}

// The recording methods accept a nil recorder, which ignores
// everything: warm-up runs the same loop without measuring.

func (r *recorder) attempt(n int) {
	if r != nil {
		r.attempted += uint64(n)
	}
}

func (r *recorder) fail(n int) {
	if r != nil {
		r.failed += uint64(n)
	}
}

// complete records the ops of a burst whose last reply arrived at t.
// Refused ops count as failed; a burst that ends after the measured
// interval is attempted but not counted as completed.
func (r *recorder) complete(ops []op, t int64) {
	if r == nil {
		return
	}
	w := r.window(t)
	for i := range ops {
		o := &ops[i]
		switch {
		case o.refused:
			r.failed++
		case w < 0:
		case o.set:
			r.set[w].record(o.lat)
			r.ops[w]++
		default:
			r.get[w].record(o.lat)
			r.ops[w]++
		}
	}
}

func (r *recorder) merge(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	for w := range r.ops {
		r.ops[w] += o.ops[w]
		r.get[w].merge(&o.get[w])
		r.set[w].merge(&o.set[w])
	}
}

func (r *recorder) totalOps() uint64 {
	var n uint64
	for _, v := range r.ops {
		n += v
	}
	return n
}

func (r *recorder) samples() (gets, sets uint64) {
	for w := range r.get {
		gets += r.get[w].n
		sets += r.set[w].n
	}
	return gets, sets
}

// opsPerSec is the median over windows of completed ops per second.
func (r *recorder) opsPerSec() float64 {
	v := make([]float64, len(r.ops))
	for w, n := range r.ops {
		v[w] = float64(n) / (float64(r.winLen) / 1e9)
	}
	return median(v)
}

// latencyUs is the median over windows of the q-quantile latency of
// one op type, in microseconds.
func latencyUs(hs []hist, q float64) float64 {
	v := make([]float64, 0, len(hs))
	for i := range hs {
		if hs[i].n > 0 {
			v = append(v, hs[i].quantile(q)/1e3)
		}
	}
	return median(v)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
