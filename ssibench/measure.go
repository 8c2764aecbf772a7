package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// tally counts one window's transactions. Workers fill their own tally
// and the window merges them, so the hot path takes no lock.
type tally struct {
	offered   int64 // transactions the window started (arrivals or picks)
	committed int64
	attempts  int64 // Begin calls, retries included
	aborts    int64 // serialization failures, one per failed attempt
	failed    int64 // offered transactions that never committed
	dropped   int64 // open-loop arrivals shed at the pending cap (also failed)
	hardErrs  int64 // non-retryable errors (also failed)
	roBegins  int64 // read-only Begin calls
	firstErr  error
	commits   []sample
}

// sample is one committed transaction's time to commit, retries
// included.
type sample struct {
	lat time.Duration
	ro  bool
}

// lats returns the latencies of the read-only or the read-write
// commits.
func lats(ss []sample, ro bool) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if s.ro == ro {
			out = append(out, s.lat)
		}
	}
	return out
}

func (t *tally) merge(o *tally) {
	t.offered += o.offered
	t.committed += o.committed
	t.attempts += o.attempts
	t.aborts += o.aborts
	t.failed += o.failed
	t.dropped += o.dropped
	t.hardErrs += o.hardErrs
	t.roBegins += o.roBegins
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.commits = append(t.commits, o.commits...)
}

func (t *tally) hardError(err error) {
	t.hardErrs++
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// window is one measured interval: its tally plus the process and
// engine counters around it.
type window struct {
	tally
	start           time.Time
	d               time.Duration // the window's requested length
	elapsed         time.Duration
	before, after   snapshot
	ebefore, eafter engineStats
	liveHeap        uint64 // after a forced GC at the window's end
	peaks           peaks  // sampled during a traced window
}

func (w *window) tps() float64 { return float64(w.committed) / w.elapsed.Seconds() }

// quantile returns the q-quantile (nearest rank) of ds in milliseconds.
func quantile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	i = min(max(i, 0), len(s)-1)
	return float64(s[i]) / float64(time.Millisecond)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// snapshot is the process's own counters at one instant.
type snapshot struct {
	cpu       time.Duration // user + system CPU time (getrusage)
	gcCPU     float64       // runtime/metrics estimates, seconds
	totalCPU  float64
	gcCycles  uint64
	allocB    uint64
	allocObjs uint64
	liveHeap  uint64
}

// takeSnapshot reads getrusage and runtime/metrics. The read itself is
// a span on tr.
func takeSnapshot(tr *tracer) snapshot {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/live:bytes"},
	}
	var s snapshot
	tr.timed("runtime.metrics", func() {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
		metrics.Read(samples)
	})
	s.gcCPU = samples[0].Value.Float64()
	s.totalCPU = samples[1].Value.Float64()
	s.gcCycles = samples[2].Value.Uint64()
	s.allocB = samples[3].Value.Uint64()
	s.allocObjs = samples[4].Value.Uint64()
	s.liveHeap = samples[5].Value.Uint64()
	return s
}

// liveHeapAfterGC forces a collection and returns the heap it left live.
func liveHeapAfterGC(tr *tracer) uint64 {
	runtime.GC()
	return takeSnapshot(tr).liveHeap
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in insertion order for the human-readable
// listing; the JSON result carries a chosen subset.
type report struct {
	names []string
	vals  map[string]metric
	notes map[string]string
}

func newReport() *report {
	return &report{vals: make(map[string]metric), notes: make(map[string]string)}
}

// set records a metric; base, when non-empty, names the count a ratio
// is taken over and is printed beside it.
func (r *report) set(name string, v float64, unit, base string) {
	if _, ok := r.vals[name]; !ok {
		r.names = append(r.names, name)
	}
	r.vals[name] = metric{Value: v, Unit: unit}
	if base != "" {
		r.notes[name] = base
	}
}

func (r *report) lines() []string {
	out := make([]string, 0, len(r.names))
	for _, n := range r.names {
		m := r.vals[n]
		l := fmt.Sprintf("%-32s %14.6g %s", n, m.Value, m.Unit)
		if b := r.notes[n]; b != "" {
			l += "  (" + b + ")"
		}
		out = append(out, l)
	}
	return out
}

// ratio returns a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
