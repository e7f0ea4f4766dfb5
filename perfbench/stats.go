package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"dmv/internal/obs"
)

// quantile returns the q-quantile of the samples by linear interpolation
// between closest ranks. It sorts xs in place.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(xs[lo])*(1-frac) + float64(xs[hi])*frac
}

// probe is a point-in-time reading of everything a phase is measured by:
// wall clock, process CPU, the Go runtime's allocation and GC counters, and
// the program's own metrics registry.
type probe struct {
	wall    time.Time
	cpu     time.Duration
	rt      map[string]float64
	metrics obs.Snapshot
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func takeProbe(reg *obs.Registry) probe {
	p := probe{wall: time.Now(), cpu: processCPU(), rt: make(map[string]float64, len(runtimeNames))}
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			p.rt[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			p.rt[s.Name] = s.Value.Float64()
		}
	}
	if reg != nil {
		p.metrics = reg.Snapshot()
	}
	return p
}

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// delta is the difference between two probes.
type delta struct {
	wall time.Duration
	cpu  time.Duration
	rt   map[string]float64
	a, b obs.Snapshot
}

func diff(a, b probe) delta {
	d := delta{wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu, rt: map[string]float64{}, a: a.metrics, b: b.metrics}
	for k, v := range b.rt {
		d.rt[k] = v - a.rt[k]
	}
	return d
}

// counter is the growth of a registry counter over the phase.
func (d delta) counter(name string) float64 {
	return float64(d.b.Counter(name) - d.a.Counter(name))
}

// hist is the histogram of the observations made during the phase.
func (d delta) hist(name string) obs.HistSnapshot {
	before := map[int64]int64{}
	for _, bk := range d.a.Histograms[name].Buckets {
		before[bk.Bound] = bk.Count
	}
	after := d.b.Histograms[name]
	out := obs.HistSnapshot{Count: after.Count - d.a.Histograms[name].Count, Sum: after.Sum - d.a.Histograms[name].Sum}
	for _, bk := range after.Buckets {
		if c := bk.Count - before[bk.Bound]; c > 0 {
			out.Buckets = append(out.Buckets, obs.HistBucket{Bound: bk.Bound, Count: c})
		}
	}
	return out
}

// liveHeapBytes forces a collection and returns the heap still in use.
func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func per(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
