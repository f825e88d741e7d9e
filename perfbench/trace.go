package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"syscall"
	"time"
)

// span is one timed call the bench made into a layer's public API. Spans
// of one batch share its (home, batch) pair; parent indexes the enclosing
// span of the same tracer (-1 for a root).
type span struct {
	name       string
	start, end time.Time
	parent     int
	home       int
	batch      int
}

// tracer records the spans of one goroutine in memory. A nil tracer (the
// untraced run) records nothing.
type tracer struct {
	name  string
	spans []span
}

func (r *runner) newTracer(name string) *tracer {
	if !r.trace {
		return nil
	}
	t := &tracer{name: name}
	r.tmu.Lock()
	r.tracers = append(r.tracers, t)
	r.tmu.Unlock()
	return t
}

func (t *tracer) begin(name string, parent, home int) int {
	return t.beginAt(name, time.Now(), parent, home, -1)
}

func (t *tracer) beginAt(name string, at time.Time, parent, home, batch int) int {
	if t == nil {
		return -1
	}
	if batch < 0 && parent >= 0 {
		batch = t.spans[parent].batch
	}
	t.spans = append(t.spans, span{name: name, start: at, parent: parent, home: home, batch: batch})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

func (t *tracer) endAt(id int, at time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = at
}

// point records an instantaneous event, such as an alert's receipt.
func (t *tracer) point(name string, at time.Time, home int) {
	t.endAt(t.beginAt(name, at, -1, home, -1), at)
}

// durations returns the lengths of every span with the given name.
func durations(ts []*tracer, name string) []time.Duration {
	var out []time.Duration
	for _, t := range ts {
		for _, s := range t.spans {
			if s.name == name && !s.end.IsZero() {
				out = append(out, s.end.Sub(s.start))
			}
		}
	}
	return out
}

// writeSpans writes every span as one JSON line, times in nanoseconds
// from the earliest span start.
func writeSpans(path string, ts []*tracer) error {
	var base time.Time
	for _, t := range ts {
		for _, s := range t.spans {
			if base.IsZero() || s.start.Before(base) {
				base = s.start
			}
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Tracer string `json:"tracer"`
		ID     int    `json:"id"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int    `json:"parent"`
		Home   int    `json:"home"`
		Batch  int    `json:"batch"`
	}
	for _, t := range ts {
		for i, s := range t.spans {
			l := line{t.name, i, s.name, s.start.Sub(base).Nanoseconds(), s.end.Sub(base).Nanoseconds(), s.parent, s.home, s.batch}
			if err := enc.Encode(l); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuSample is process CPU time plus the Go runtime's own counters, read
// together so a phase's deltas line up.
type cpuSample struct {
	cpu    time.Duration // user + system, all threads
	gc     float64       // GC CPU seconds (runtime estimate)
	allocs float64       // heap objects allocated
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
}

func readCPU() cpuSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // RUSAGE_SELF cannot fail
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	return cpuSample{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gc:     s[0].Value.Float64(),
		allocs: float64(s[1].Value.Uint64()),
	}
}

func (a cpuSample) sub(b cpuSample) cpuSample {
	return cpuSample{cpu: a.cpu - b.cpu, gc: a.gc - b.gc, allocs: a.allocs - b.allocs}
}
