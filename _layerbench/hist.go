package main

import (
	"math/bits"
	"time"
)

// hist is a fixed-size log-linear latency histogram: 128 linear
// sub-buckets per power of two, so a quantile read from it is within 0.8%
// of the true sample. It is sized once and never allocates while
// recording, which keeps the timed loops allocation-free. (The observer's
// own histograms use power-of-two buckets, too coarse to resolve a bound
// of a few percent.)
type hist struct {
	n      int64
	counts [histBuckets]int64
}

const (
	subBits     = 7
	subCount    = 1 << subBits // linear sub-buckets per power of two
	histBuckets = (64 - subBits) * subCount
)

func histIndex(ns int64) int {
	if ns < 2*subCount {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	shift := bits.Len64(uint64(ns)) - subBits - 1
	return (shift+1)*subCount + int(ns>>shift) - subCount
}

// histLower is the smallest value that lands in bucket i; histLower(i+1)
// bounds it from above.
func histLower(i int) int64 {
	if i < 2*subCount {
		return int64(i)
	}
	shift := i/subCount - 1
	return int64(i%subCount+subCount) << shift
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in microseconds, interpolated linearly
// by rank inside the bucket that holds it (0 for an empty histogram).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var below int64
	for i, c := range h.counts {
		if c > 0 && float64(below+c) > rank {
			lo, hi := float64(histLower(i)), float64(histLower(i+1))
			frac := (rank - float64(below) + 0.5) / float64(c)
			return (lo + frac*(hi-lo)) / 1e3
		}
		below += c
	}
	return 0
}
