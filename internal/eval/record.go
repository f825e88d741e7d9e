package eval

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Record is the one benchmark record every dice-eval experiment writes
// through -out and dice-benchdiff judges: the experiment's name and its
// metrics, each declaring how it may move. The fields follow the metric
// declarations of the repo's BENCHMARK.json.
type Record struct {
	Experiment string   `json:"experiment"`
	Metrics    []Metric `json:"metrics"`
}

// Which way a metric improves.
const (
	Higher = "higher"
	Lower  = "lower"
	// Equal marks a value fixed by the experiment's constants and seeds:
	// its settings and the deterministic counts a replay must reproduce.
	// Any difference from the baseline is a failure.
	Equal = "equal"
)

// Metric is one named figure of a record. Min and Max are absolute floors,
// applied to every run. Bound is the fraction a Higher or Lower metric may
// regress against the baseline; zero means the metric is detail that no
// baseline comparison reads.
type Metric struct {
	Name   string   `json:"name"`
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  float64  `json:"bound,omitempty"`
	Min    *float64 `json:"min,omitempty"`
	Max    *float64 `json:"max,omitempty"`
}

// Check applies the fresh record's declarations: every metric's Min and
// Max always, and, when a baseline is given, the experiment name, each
// Equal metric and each bounded metric against the baseline's value. A
// baseline metric missing from the fresh record fails too. All failures
// are reported together.
func (r *Record) Check(baseline *Record) error {
	var errs []error
	fresh := make(map[string]Metric, len(r.Metrics))
	for _, m := range r.Metrics {
		fresh[m.Name] = m
		switch {
		case m.Better != Higher && m.Better != Lower && m.Better != Equal:
			errs = append(errs, fmt.Errorf("%s: better %q, want higher, lower or equal", m.Name, m.Better))
		case m.Min != nil && m.Value < *m.Min:
			errs = append(errs, fmt.Errorf("%s = %g %s, floor is %g", m.Name, m.Value, m.Unit, *m.Min))
		case m.Max != nil && m.Value > *m.Max:
			errs = append(errs, fmt.Errorf("%s = %g %s, ceiling is %g", m.Name, m.Value, m.Unit, *m.Max))
		}
	}
	if baseline != nil {
		if baseline.Experiment != r.Experiment {
			return fmt.Errorf("experiment %q checked against a %q baseline", r.Experiment, baseline.Experiment)
		}
		for _, b := range baseline.Metrics {
			m, ok := fresh[b.Name]
			switch {
			case !ok:
				errs = append(errs, fmt.Errorf("%s: in the baseline, missing from the fresh record", b.Name))
			case m.Better == Equal && m.Value != b.Value:
				errs = append(errs, fmt.Errorf("%s = %g %s, baseline %g (fixed by the experiment: a behaviour change or a stale baseline)",
					m.Name, m.Value, m.Unit, b.Value))
			case m.Better == Higher && m.Bound > 0 && m.Value < b.Value*(1-m.Bound):
				errs = append(errs, fmt.Errorf("%s regressed: %g %s < %g (baseline %g - %g%%)",
					m.Name, m.Value, m.Unit, b.Value*(1-m.Bound), b.Value, 100*m.Bound))
			case m.Better == Lower && m.Bound > 0 && m.Value > b.Value*(1+m.Bound):
				errs = append(errs, fmt.Errorf("%s regressed: %g %s > %g (baseline %g + %g%%)",
					m.Name, m.Value, m.Unit, b.Value*(1+m.Bound), b.Value, 100*m.Bound))
			}
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s: %w", r.Experiment, errors.Join(errs...))
	}
	return nil
}

// add appends a detail metric; gated ones are appended whole, with their
// declarations.
func (r *Record) add(name string, v float64, unit, better string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, Unit: unit, Better: better})
}

func (r *Record) fixed(name string, v float64, unit string) { r.add(name, v, unit, Equal) }

func (r *Record) count(name string, v int, better string) { r.add(name, float64(v), "count", better) }

func (r *Record) ms(name string, v float64) { r.add(name, v, "ms", Lower) }

func (r *Record) gate(m Metric) { r.Metrics = append(r.Metrics, m) }

// limit is a Min or Max declaration.
func limit(v float64) *float64 { return &v }

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// millis renders a duration as the fractional milliseconds every record
// uses.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// EvalRecord is the record of an accuracy/latency sweep: the wall clock,
// each dataset's size and per-stage timings, and the telemetry snapshot
// aggregated across every dataset and worker (the same dice_* series a
// live gateway serves on /metrics). None of it is gated: the per-window
// timings are one run's means and do not repeat between runs.
func EvalRecord(results []*DatasetResult, workers int, wall time.Duration, snapshot map[string]float64) *Record {
	r := &Record{Experiment: "eval"}
	r.fixed("workers", float64(workers), "count")
	r.ms("wall_clock_ms", millis(wall))
	for _, d := range results {
		r.count(d.Name+".num_sensors", d.NumSensors, Higher)
		r.count(d.Name+".num_groups", d.NumGroups, Higher)
		r.ms(d.Name+".train_ms", millis(d.TrainTime))
		r.ms(d.Name+".eval_ms", millis(d.EvalTime))
		r.add(d.Name+".correlation_ns_per_window", float64(d.CorrelationCheckTime.Nanoseconds()), "ns", Lower)
		r.add(d.Name+".transition_ns_per_window", float64(d.TransitionCheckTime.Nanoseconds()), "ns", Lower)
		r.add(d.Name+".identify_ns_per_window", float64(d.IdentifyTime.Nanoseconds()), "ns", Lower)
	}
	names := make([]string, 0, len(snapshot))
	for k := range snapshot {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		unit := "count"
		if strings.Contains(k, "_seconds_sum") {
			unit = "s"
		}
		r.add(k, snapshot[k], unit, Lower)
	}
	return r
}
