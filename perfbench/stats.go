package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-th quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; +Inf entries (failed
// operations) sort last, so a failure counts as missing every latency
// limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(s[hi], 1) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reports the process's peak resident set size in MB (Linux
// reports ru_maxrss in KiB). Child processes are not included.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// heapSample is a point-in-time read of the allocator counters.
type heapSample struct {
	totalAlloc uint64
	numGC      uint32
}

func readHeap() heapSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heapSample{totalAlloc: m.TotalAlloc, numGC: m.NumGC}
}

// runtimePerOp turns two allocator samples around a timed phase of ops
// operations into the runtime layer's per-operation metrics.
func runtimePerOp(before, after heapSample, ops int) (allocMB, gcs float64) {
	if ops == 0 {
		return 0, 0
	}
	allocMB = float64(after.totalAlloc-before.totalAlloc) / (1 << 20) / float64(ops)
	gcs = float64(after.numGC-before.numGC) / float64(ops)
	return allocMB, gcs
}
