package main

import "math/bits"

// hist is a log-linear histogram of non-negative durations in
// nanoseconds: exact below 128 ns, then 64 buckets per power of two
// (under 1.6% relative width). Quantiles interpolate linearly inside
// the bucket, so they vary continuously from run to run instead of
// snapping to bucket edges. Recording is allocation-free.
type hist struct {
	n      uint64
	counts [histBuckets]uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// 40 octaves reach past 10^12 ns; larger values clamp to the top.
	histBuckets = histSub * 40
)

func histBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	shift := bits.Len64(u) - (histSubBits + 1)
	if shift < 0 {
		shift = 0
	}
	idx := shift*histSub + int(u>>uint(shift))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// histRange returns bucket idx's lower bound and width.
func histRange(idx int) (lo, width float64) {
	if idx < 2*histSub {
		return float64(idx), 1
	}
	shift := idx/histSub - 1
	sub := idx - shift*histSub
	return float64(uint64(sub) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) record(ns int64) {
	h.counts[histBucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= rank {
			lo, width := histRange(i)
			return lo + width*(rank-cum)/fc
		}
		cum += fc
	}
	lo, width := histRange(histBuckets - 1)
	return lo + width
}
