package eval

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gateway"
)

func TestRecordCheck(t *testing.T) {
	base := &Record{Experiment: "x", Metrics: []Metric{
		{Name: "rate", Value: 100, Unit: "pct", Better: Higher, Bound: 0.15},
		{Name: "cost", Value: 100, Unit: "ms", Better: Lower, Bound: 0.25},
		{Name: "count", Value: 4, Unit: "count", Better: Equal},
		{Name: "detail", Value: 7, Unit: "ms", Better: Lower},
	}}
	fresh := func(edit func(*Record)) *Record {
		r := &Record{Experiment: base.Experiment, Metrics: append([]Metric(nil), base.Metrics...)}
		if edit != nil {
			edit(r)
		}
		return r
	}
	set := func(name string, v float64) func(*Record) {
		return func(r *Record) {
			for i := range r.Metrics {
				if r.Metrics[i].Name == name {
					r.Metrics[i].Value = v
				}
			}
		}
	}
	declare := func(name string, edit func(*Metric)) func(*Record) {
		return func(r *Record) {
			for i := range r.Metrics {
				if r.Metrics[i].Name == name {
					edit(&r.Metrics[i])
				}
			}
		}
	}
	for _, c := range []struct {
		name     string
		fresh    *Record
		baseline *Record
		wantErr  string // substring; empty = passes
	}{
		{"identical", fresh(nil), base, ""},
		{"higher within bound", fresh(set("rate", 85)), base, ""},
		{"higher beyond bound", fresh(set("rate", 84)), base, "rate regressed"},
		{"higher improved", fresh(set("rate", 1000)), base, ""},
		{"lower within bound", fresh(set("cost", 125)), base, ""},
		{"lower beyond bound", fresh(set("cost", 126)), base, "cost regressed"},
		{"detail moves freely", fresh(set("detail", 1e9)), base, ""},
		{"no baseline, no bound read", fresh(set("rate", 0)), nil, ""},
		{"min broken, no baseline", fresh(declare("rate", func(m *Metric) { m.Min = limit(90); m.Value = 89 })), nil, "floor is 90"},
		{"min broken, with baseline", fresh(declare("rate", func(m *Metric) { m.Min = limit(90); m.Value = 89 })), base, "floor is 90"},
		{"min met", fresh(declare("rate", func(m *Metric) { m.Min = limit(90); m.Value = 90 })), nil, ""},
		{"max broken, no baseline", fresh(declare("detail", func(m *Metric) { m.Max = limit(0) })), nil, "ceiling is 0"},
		{"max broken, with baseline", fresh(declare("detail", func(m *Metric) { m.Max = limit(0) })), base, "ceiling is 0"},
		{"equal mismatch", fresh(set("count", 5)), base, "count = 5"},
		{"equal mismatch, no baseline", fresh(set("count", 5)), nil, ""},
		{"missing from fresh", fresh(func(r *Record) { r.Metrics = r.Metrics[:3] }), base, "detail: in the baseline, missing"},
		{"new fresh metric", fresh(func(r *Record) { r.add("new", 1, "count", Higher) }), base, ""},
		{"experiment mismatch", fresh(func(r *Record) { r.Experiment = "y" }), base, `"y" checked against a "x" baseline`},
		{"unknown better", fresh(declare("detail", func(m *Metric) { m.Better = "more" })), nil, `better "more"`},
	} {
		err := c.fresh.Check(c.baseline)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: Check = %v, want pass", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: Check passed, want %q", c.name, c.wantErr)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: Check = %v, want %q", c.name, err, c.wantErr)
		}
	}
}

// TestRecordCheckReportsEveryFailure: one Check names every broken
// declaration, not just the first.
func TestRecordCheckReportsEveryFailure(t *testing.T) {
	r := &Record{Experiment: "x", Metrics: []Metric{
		{Name: "a", Value: 1, Better: Lower, Max: limit(0)},
		{Name: "b", Value: 0, Better: Higher, Min: limit(1)},
	}}
	err := r.Check(nil)
	if err == nil || !strings.Contains(err.Error(), "a = 1") || !strings.Contains(err.Error(), "b = 0") {
		t.Fatalf("Check = %v, want both failures", err)
	}
}

// TestCommittedBaselinesAreRecords: every committed BENCH_*.json is a
// record whose floors hold and which passes against itself.
func TestCommittedBaselinesAreRecords(t *testing.T) {
	for _, e := range []string{"eval", "cluster", "drift", "timing", "scenarios"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+e+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var r Record
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("BENCH_%s.json: %v", e, err)
		}
		if r.Experiment != e || len(r.Metrics) == 0 {
			t.Errorf("BENCH_%s.json: experiment %q with %d metrics", e, r.Experiment, len(r.Metrics))
		}
		if err := r.Check(nil); err != nil {
			t.Errorf("BENCH_%s.json floors: %v", e, err)
		}
		if err := r.Check(&r); err != nil {
			t.Errorf("BENCH_%s.json against itself: %v", e, err)
		}
	}
}

// gateBreaks builds a passing result's record as the baseline, then checks
// that each named break of the result makes the fresh record fail with the
// wanted message, against the baseline and, for absolute floors, alone.
func gateBreaks[T any](t *testing.T, pass func() *T, record func(*T) *Record, breaks []gateBreak[T]) {
	t.Helper()
	base := record(pass())
	if err := base.Check(base); err != nil {
		t.Fatalf("passing result fails its own gate: %v", err)
	}
	for _, b := range breaks {
		res := pass()
		b.edit(res)
		fresh := record(res)
		err := fresh.Check(base)
		if err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: Check(baseline) = %v, want %q", b.name, err, b.want)
		}
		if b.floor {
			if err := fresh.Check(nil); err == nil || !strings.Contains(err.Error(), b.want) {
				t.Errorf("%s: Check(nil) = %v, want %q", b.name, err, b.want)
			}
		}
	}
}

type gateBreak[T any] struct {
	name  string
	edit  func(*T)
	want  string
	floor bool // an absolute floor: fails without a baseline too
}

func passingCluster() *ClusterBenchResult {
	res := &ClusterBenchResult{
		Nodes: clusterNodes, Homes: clusterHomes, Hours: clusterHours, BatchSize: clusterBatchSize,
		Events: 89415, Alerts: 135, EventsPerSec: 2e5, SoloEventsPerSec: 1e7, Efficiency: 0.02,
		Handoffs: 1, Failovers: 2, Replacements: 6, BitIdentical: true,
	}
	for i := 0; i < clusterHomes; i++ {
		res.PerHome = append(res.PerHome, HomeResult{Home: fmt.Sprintf("home-%02d", i), Stats: gateway.Stats{Events: 14900, Windows: 120}})
	}
	return res
}

// TestClusterRecordGate: the cluster run must stay bit-identical to its
// solo replay, and its efficiency within 40% of the baseline's.
func TestClusterRecordGate(t *testing.T) {
	gateBreaks(t, passingCluster, (*ClusterBenchResult).Record, []gateBreak[ClusterBenchResult]{
		{"diverged from solo", func(r *ClusterBenchResult) { r.BitIdentical = false }, "bit_identical = 0", true},
		{"efficiency beyond bound", func(r *ClusterBenchResult) { r.Efficiency = 0.0119 }, "efficiency regressed", false},
		{"efficiency missing", func(r *ClusterBenchResult) { r.Efficiency = 0 }, "efficiency regressed", false},
		{"different drill", func(r *ClusterBenchResult) { r.Homes = 4 }, "homes = 4", false},
	})
}

func passingDrift() *DriftBenchResult {
	return &DriftBenchResult{
		TrainHours: driftTrainHours, DriftDays: driftDays, ExtraActivities: driftExtraActivities,
		DriftWindows: driftDays * 24 * 60, Trials: driftTrials, AdmitAfter: driftAdmitAfter, Seed: driftSeed,
		Static:                 DriftArmResult{FalseAlarms: 14, ViolationWindows: 160},
		Adaptive:               DriftArmResult{FalseAlarms: 9, ViolationWindows: 15},
		FalseAlarmReductionPct: 100 * (1 - 9.0/14),
		FinalEpoch:             4, GroupsAdmitted: 1, EdgesAdmitted: 2, DecayedEdges: 9, BaseGroups: 9, AdaptedGroups: 10,
	}
}

// TestDriftRecordGate: the adaptive arm misses no fault and beats the
// static arm, the adaptation counts are fixed, and the false-alarm
// reduction stays within 15% of the baseline's.
func TestDriftRecordGate(t *testing.T) {
	gateBreaks(t, passingDrift, (*DriftBenchResult).Record, []gateBreak[DriftBenchResult]{
		{"adaptive arm missed a fault", func(r *DriftBenchResult) { r.Adaptive.MissedFaults = 1 }, "adaptive.missed_faults = 1", true},
		{"adaptive ties static", func(r *DriftBenchResult) { r.Adaptive.FalseAlarms = 14 }, "false_alarms_avoided = 0", true},
		{"adaptive worse than static", func(r *DriftBenchResult) { r.Adaptive.FalseAlarms = 15 }, "false_alarms_avoided = -1", true},
		{"final epoch", func(r *DriftBenchResult) { r.FinalEpoch = 5 }, "final_epoch = 5", false},
		{"groups admitted", func(r *DriftBenchResult) { r.GroupsAdmitted = 2 }, "groups_admitted = 2", false},
		{"edges admitted", func(r *DriftBenchResult) { r.EdgesAdmitted = 3 }, "edges_admitted = 3", false},
		{"decayed edges", func(r *DriftBenchResult) { r.DecayedEdges = 2 }, "decayed_edges = 2", false},
		{"adapted groups", func(r *DriftBenchResult) { r.AdaptedGroups = 9 }, "adapted_groups = 9", false},
		{"reduction beyond bound", func(r *DriftBenchResult) { r.FalseAlarmReductionPct = 30 }, "false_alarm_reduction_pct regressed", false},
		{"reduction missing", func(r *DriftBenchResult) { r.FalseAlarmReductionPct = 0 }, "false_alarm_reduction_pct regressed", false},
	})
}

func passingTiming() *TimingBenchResult {
	return &TimingBenchResult{
		TrainHours: timingTrainHours, CleanHours: timingCleanHours, Trials: timingTrials,
		DelayWindows: timingDelayWindows, Seed: timingSeed, Groups: 11,
		Structural:       TimingArmResult{Missed: 12},
		Timing:           TimingArmResult{Caught: 12},
		StructuralMissed: 12, TimingCaughtOfMissed: 12, CatchPct: 100, TimingCauseDetections: 12,
	}
}

// TestTimingRecordGate: no timing-flagged clean window, no extra false
// alarm, a non-vacuous structural miss count, and a catch rate of at
// least 80% and within 15% of the baseline's.
func TestTimingRecordGate(t *testing.T) {
	gateBreaks(t, passingTiming, (*TimingBenchResult).Record, []gateBreak[TimingBenchResult]{
		{"clean window flagged", func(r *TimingBenchResult) { r.CleanTimingFlags = 1 }, "clean_timing_flags = 1", true},
		{"extra false alarm", func(r *TimingBenchResult) { r.ExtraFalseAlarms = 1 }, "extra_false_alarms = 1", true},
		{"vacuous", func(r *TimingBenchResult) { r.StructuralMissed = 0 }, "structural_missed = 0", true},
		{"catch below 80%", func(r *TimingBenchResult) { r.CatchPct = 75 }, "catch_pct = 75", true},
		{"catch beyond bound", func(r *TimingBenchResult) { r.CatchPct = 84 }, "catch_pct regressed", false},
	})
}

func passingScenarios() *ScenarioBenchResult {
	res := &ScenarioBenchResult{
		TrainHours: scenarioTrainHours, CleanHours: scenarioCleanHours, Trials: scenarioTrials,
		Seed: scenarioSeed, Groups: 14, Storm2AllNamedPct: 100,
	}
	for _, name := range ScenarioNames() {
		res.Scenarios = append(res.Scenarios, ScenarioResult{Name: name, Trials: scenarioTrials})
	}
	return res
}

// TestScenarioRecordGate: no alert on the clean replay or a benign
// scenario, at least one scenario, and storm-2 naming every injected
// device in at least 80% of trials and within 15% of the baseline's rate.
func TestScenarioRecordGate(t *testing.T) {
	gateBreaks(t, passingScenarios, (*ScenarioBenchResult).Record, []gateBreak[ScenarioBenchResult]{
		{"clean false alarm", func(r *ScenarioBenchResult) { r.CleanFalseAlarms = 1 }, "clean_false_alarms = 1", true},
		{"benign false alarm", func(r *ScenarioBenchResult) { r.BenignFalseAlarms = 2 }, "benign_false_alarms = 2", true},
		{"storm-2 below 80%", func(r *ScenarioBenchResult) { r.Storm2AllNamedPct = 60 }, "storm2_all_named_pct = 60", true},
		{"storm-2 beyond bound", func(r *ScenarioBenchResult) { r.Storm2AllNamedPct = 84 }, "storm2_all_named_pct regressed", false},
		{"no scenarios", func(r *ScenarioBenchResult) { r.Scenarios = nil }, "scenarios = 0", true},
	})
}
