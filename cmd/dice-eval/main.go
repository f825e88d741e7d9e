// Command dice-eval reproduces the paper's evaluation: it simulates the ten
// datasets of Table 4.1, runs the §V protocol, and prints every table and
// figure of the evaluation section.
//
// Usage:
//
//	dice-eval [-exp all|datasets|accuracy|latency|checks|degree|compute|ratio|actuators|multifault|ablations|baselines|recovery|cluster|drift|timing|scenarios]
//	          [-datasets houseA,twor,...] [-trials N] [-seed N] [-csv]
//	          [-workers N] [-benchjson FILE]
//	          [-recovery-hours H] [-recoveryjson FILE]
//	          [-cluster-nodes N] [-cluster-homes M] [-cluster-hours H] [-clusterjson FILE]
//	          [-drift-days D] [-drift-extra A] [-drift-admit N] [-driftjson FILE]
//	          [-timing-delay W] [-timing-trials N] [-timingjson FILE]
//	          [-scenario-trials N] [-scenario-train H] [-scenariosjson FILE]
//
// `-trials 100` reproduces the paper-scale run (the default is 40 to keep
// the full ten-dataset sweep under a minute on a laptop). `-workers` sizes
// the evaluation worker pool (0 = GOMAXPROCS); results are bit-identical at
// any worker count. `-benchjson` writes wall-clock and per-stage timings plus
// a telemetry snapshot (the same dice_* series a live gateway serves on
// /metrics) to a JSON file so the performance trajectory is tracked across
// changes. Every -*json flag is off by default, so a plain run never
// overwrites the committed BENCH_*.json baselines; the Makefile's bench-*
// targets name their file explicitly.
//
// `-exp recovery` prices the write-ahead log (ingest throughput per fsync
// policy against a no-WAL baseline) and times a simulated crash recovery
// from checkpoint + WAL tail, verifying the recovered state is
// bit-identical; the numbers land in `-recoveryjson`
// (BENCH_recovery.json).
//
// `-exp cluster` benchmarks the federated hub cluster: N in-process nodes
// share a durable state tree, M homes stream DWB1 batches over HTTP, and
// mid-replay the bench live-migrates one tenant and kills one node. It
// reports federation efficiency (cluster vs solo throughput), migration
// and fail-over latency, and the bit-identity verdict; the numbers land in
// `-clusterjson` (BENCH_cluster.json).
//
// `-exp drift` benchmarks online context adaptation: a context trained on
// the original routine replays a drifted stream (the residents adopt
// `-drift-extra` new activities) through a static detector and an
// adapter-backed one, then injects sensor faults after the adaptation
// window. The adaptive arm must cut the static arm's false alarms without
// missing a single injected fault; the numbers land in `-driftjson`
// (BENCH_drift.json).
//
// `-exp timing` benchmarks the time-aware transition checks: timing faults
// (delayed actuators, slowly degrading sensors) that are structurally
// invisible are replayed through a structural-only detector and a
// timing-aware one. The timing arm must catch at least 80% of what the
// structural arm misses while flagging zero clean windows; the numbers land
// in `-timingjson` (BENCH_timing.json).
//
// `-exp scenarios` grades the multi-fault detector on the adversarial
// scenario library: spoofed ghost devices, replay attacks, malicious
// actuator triggering, benign occupancy changes (guest, vacation), and
// mixed-fault storms of 2–4 point+stream faults with staggered onsets.
// Floors: zero alerts on the benign scenarios, and the two-fault storm's
// alerts must name every injected device in >= 80% of trials. Per-scenario
// detection and identification precision/recall land in
// `-scenariosjson` (BENCH_scenarios.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/eval"
	"repro/internal/report"
	"repro/internal/simhome"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dice-eval:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("exp", "all", "experiment to run")
	dsFlag := flag.String("datasets", "", "comma-separated dataset names (default: all ten)")
	trials := flag.Int("trials", 40, "faulty segments per dataset (paper: 100)")
	seed := flag.Int64("seed", 42, "simulation seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	workers := flag.Int("workers", 0, "evaluation worker pool size (0 = GOMAXPROCS); results are identical at any count")
	benchJSON := flag.String("benchjson", "", "write wall-clock/per-stage timings to this JSON file (empty = off)")
	recHours := flag.Int("recovery-hours", 2, "replayed stream hours for -exp recovery")
	recJSON := flag.String("recoveryjson", "", "write the -exp recovery result to this JSON file (empty = off)")
	clusterNodes := flag.Int("cluster-nodes", 3, "federated hub nodes for -exp cluster (the last one is killed mid-stream)")
	clusterHomes := flag.Int("cluster-homes", 6, "tenants spread across the cluster for -exp cluster")
	clusterHours := flag.Int("cluster-hours", 2, "replayed stream hours per home for -exp cluster")
	clusterJSON := flag.String("clusterjson", "", "write the -exp cluster result to this JSON file (empty = off)")
	driftDays := flag.Int("drift-days", 0, "days of drifted behaviour for -exp drift (0 = bench default)")
	driftExtra := flag.Int("drift-extra", 0, "new activities the residents adopt for -exp drift (0 = bench default)")
	driftAdmit := flag.Int("drift-admit", 0, "adapter admission threshold for -exp drift (0 = bench default)")
	driftJSON := flag.String("driftjson", "", "write the -exp drift result to this JSON file (empty = off)")
	timingDelay := flag.Int("timing-delay", 0, "hold windows per delayed trigger for -exp timing (0 = bench default)")
	timingTrials := flag.Int("timing-trials", 0, "fault trials for -exp timing (0 = bench default)")
	timingJSON := flag.String("timingjson", "", "write the -exp timing result to this JSON file (empty = off)")
	scenarioTrials := flag.Int("scenario-trials", 0, "trials per scenario for -exp scenarios (0 = bench default)")
	scenarioTrain := flag.Int("scenario-train", 0, "training hours for -exp scenarios (0 = bench default)")
	scenariosJSON := flag.String("scenariosjson", "", "write the -exp scenarios result to this JSON file (empty = off)")
	flag.Parse()

	specs, err := selectSpecs(*dsFlag)
	if err != nil {
		return err
	}
	proto := eval.DefaultProtocol()
	proto.Trials = *trials
	proto.Seed = *seed
	// One shared registry across all datasets and workers; its snapshot
	// lands in the benchjson file next to the timings.
	tel := telemetry.NewRegistry()
	proto.Telemetry = tel

	emit := func(t *report.Table) error {
		if *csv {
			return t.CSV(os.Stdout)
		}
		return t.Render(os.Stdout)
	}

	switch *exp {
	case "datasets":
		return emit(report.Datasets(specs))
	case "all", "accuracy", "latency", "checks", "degree", "compute", "ratio", "fig5.1a", "fig5.1b", "fig5.2", "table5.1", "table5.2", "fig5.3", "fig5.4":
		if *exp == "all" {
			if err := emit(report.Datasets(specs)); err != nil {
				return err
			}
		}
		wallStart := time.Now()
		results, err := evaluate(specs, *seed, proto, *workers)
		if err != nil {
			return err
		}
		if err := writeBenchJSON(*benchJSON, results, *workers, time.Since(wallStart), tel); err != nil {
			return err
		}
		tables := map[string]*report.Table{
			"accuracy": report.Accuracy(results),
			"latency":  report.Latency(results),
			"checks":   report.CheckLatency(results),
			"degree":   report.Degree(results),
			"compute":  report.ComputeTime(results),
			"ratio":    report.DetectionRatio(results),
		}
		alias := map[string]string{
			"fig5.1a": "accuracy", "fig5.1b": "accuracy", "fig5.2": "latency",
			"table5.1": "checks", "table5.2": "degree", "fig5.3": "compute",
			"fig5.4": "ratio",
		}
		if *exp == "all" {
			for _, k := range []string{"accuracy", "latency", "checks", "degree", "compute", "ratio"} {
				if err := emit(tables[k]); err != nil {
					return err
				}
			}
			return nil
		}
		key := *exp
		if a, ok := alias[key]; ok {
			key = a
		}
		return emit(tables[key])
	case "recovery":
		return runRecoveryBench(eval.RecoveryBench{
			Hours: *recHours,
			Seed:  *seed,
		}, *recJSON)
	case "cluster":
		return runClusterBench(eval.ClusterBench{
			Nodes: *clusterNodes,
			Homes: *clusterHomes,
			Hours: *clusterHours,
			Seed:  *seed,
		}, *clusterJSON)
	case "drift":
		return runDriftBench(eval.DriftBench{
			DriftDays:       *driftDays,
			ExtraActivities: *driftExtra,
			AdmitAfter:      *driftAdmit,
		}, *driftJSON)
	case "timing":
		return runTimingBench(eval.TimingBench{
			DelayWindows: *timingDelay,
			Trials:       *timingTrials,
		}, *timingJSON)
	case "scenarios":
		return runScenarioBench(eval.ScenarioBench{
			TrainHours: *scenarioTrain,
			Trials:     *scenarioTrials,
		}, *scenariosJSON)
	case "actuators":
		return runActuators(specs, *seed, proto, *workers, emit)
	case "multifault":
		return runMultiFault(specs, *seed, proto, emit)
	case "ablations":
		return runAblations(*seed, proto, emit)
	case "baselines":
		return runBaselines(specs, *seed, proto, emit)
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}
}

func selectSpecs(names string) ([]simhome.Spec, error) {
	if names == "" {
		return simhome.AllSpecs(), nil
	}
	var out []simhome.Spec
	for _, n := range strings.Split(names, ",") {
		s, err := simhome.SpecByName(strings.TrimSpace(n))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func evaluate(specs []simhome.Spec, seed int64, proto eval.Protocol, workers int) ([]*eval.DatasetResult, error) {
	return eval.EvaluateAll(specs, seed, proto, workers, func(name string) {
		fmt.Fprintf(os.Stderr, "evaluating %s...\n", name)
	})
}

// benchJSON is the perf-trajectory record dice-eval drops after a run, so
// successive changes to the hot path can be compared without re-deriving
// numbers from logs.
type benchJSON struct {
	Timestamp   string             `json:"timestamp"`
	Workers     int                `json:"workers"`
	WallClockMS float64            `json:"wall_clock_ms"`
	Datasets    []datasetBenchJSON `json:"datasets"`
	// Metrics is the telemetry registry snapshot aggregated across every
	// dataset and worker: the same dice_* series a live gateway serves on
	// /metrics, here as a flat name -> value map.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type datasetBenchJSON struct {
	Name       string  `json:"name"`
	NumSensors int     `json:"num_sensors"`
	NumGroups  int     `json:"num_groups"`
	TrainMS    float64 `json:"train_ms"`
	EvalMS     float64 `json:"eval_ms"`
	// Per-window stage means in nanoseconds (Fig 5.3's quantities).
	CorrelationNS float64 `json:"correlation_ns_per_window"`
	TransitionNS  float64 `json:"transition_ns_per_window"`
	IdentifyNS    float64 `json:"identify_ns_per_window"`
}

func writeBenchJSON(path string, results []*eval.DatasetResult, workers int, wall time.Duration, tel *telemetry.Registry) error {
	if path == "" {
		return nil
	}
	out := benchJSON{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		Workers:     workers,
		WallClockMS: float64(wall.Microseconds()) / 1000,
		Metrics:     tel.SnapshotMap(),
	}
	for _, r := range results {
		out.Datasets = append(out.Datasets, datasetBenchJSON{
			Name:          r.Name,
			NumSensors:    r.NumSensors,
			NumGroups:     r.NumGroups,
			TrainMS:       float64(r.TrainTime.Microseconds()) / 1000,
			EvalMS:        float64(r.EvalTime.Microseconds()) / 1000,
			CorrelationNS: float64(r.CorrelationCheckTime.Nanoseconds()),
			TransitionNS:  float64(r.TransitionCheckTime.Nanoseconds()),
			IdentifyNS:    float64(r.IdentifyTime.Nanoseconds()),
		})
	}
	return writeJSON(path, "bench", out)
}

// writeJSON writes v as indented JSON to path; an empty path writes
// nothing.
func writeJSON(path, what string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s json: %w", what, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// runClusterBench federates N in-process hub nodes, replays every home's
// stream through them while live-migrating one tenant and killing one
// node, and lands the throughput/recovery numbers in jsonPath when set.
func runClusterBench(o eval.ClusterBench, jsonPath string) error {
	res, err := eval.RunClusterBench(o)
	if err != nil {
		return err
	}
	fmt.Printf("cluster bench: %d homes x %dh across %d nodes (one killed, one migration)\n",
		res.Homes, res.Hours, res.Nodes)
	fmt.Printf("  train     %8.1f ms (shared context)\n", res.TrainMS)
	fmt.Printf("  replay    %8.1f ms  (%d events, %d alerts; batches of %d over HTTP)\n",
		res.WallClockMS, res.Events, res.Alerts, res.BatchSize)
	fmt.Printf("  rate      %8.0f events/sec  (solo %8.0f, efficiency %.3f, bit-identical=%v)\n",
		res.EventsPerSec, res.SoloEventsPerSec, res.Efficiency, res.BitIdentical)
	fmt.Printf("  migration %8.1f ms drain-and-handoff\n", res.MigrationMS)
	fmt.Printf("  fail-over %8.1f ms to re-adopt the dead node's homes (%.0f ms silence budget)\n",
		res.FailoverRecoverMS, res.FailoverDetectMS)
	fmt.Printf("  counters  %d handoffs, %d failovers, %d replacements, %d retries\n",
		res.Handoffs, res.Failovers, res.Replacements, res.Retries)
	if !res.BitIdentical {
		return fmt.Errorf("cluster replay diverged from solo gateways")
	}
	return writeJSON(jsonPath, "cluster bench", res)
}

// runRecoveryBench prices WAL durability per fsync policy and times a
// checkpoint+WAL crash recovery. The result lands in jsonPath when set.
func runRecoveryBench(o eval.RecoveryBench, jsonPath string) error {
	res, err := eval.RunRecoveryBench(o)
	if err != nil {
		return err
	}
	fmt.Printf("recovery bench: %dh stream, %d events\n", res.Hours, res.Events)
	for _, p := range res.Policies {
		fmt.Printf("  fsync=%-6s %8.1f ms replay  %8.0f events/sec  (+%.1f%%)\n",
			p.Policy, p.ReplayMS, p.EventsPerSec, p.OverheadPct)
	}
	fmt.Printf("  crash at %.0f%% checkpoint: %d WAL records replayed in %.1f ms (%8.0f events/sec), bit-identical=%v\n",
		100*res.CheckpointAt, res.ReplayedRecords, res.RecoveryMS, res.RecoveredPerSec, res.BitIdentical)
	return writeJSON(jsonPath, "recovery bench", res)
}

// runDriftBench replays a seeded behaviour drift through a static and an
// adaptive detector and scores false alarms plus post-adaptation fault
// detection. The result lands in jsonPath when set.
func runDriftBench(o eval.DriftBench, jsonPath string) error {
	res, benchErr := eval.RunDriftBench(o)
	if res != nil {
		fmt.Printf("drift bench: %dh training, %d drift days (+%d activities), %d fault trials\n",
			res.TrainHours, res.DriftDays, res.ExtraActivities, res.Trials)
		fmt.Printf("  static   %3d false alarms, %4d violation windows, %d/%d faults missed  (%.1f ms replay)\n",
			res.Static.FalseAlarms, res.Static.ViolationWindows, res.Static.MissedFaults, res.Trials, res.Static.ReplayMS)
		fmt.Printf("  adaptive %3d false alarms, %4d violation windows, %d/%d faults missed  (%.1f ms replay)\n",
			res.Adaptive.FalseAlarms, res.Adaptive.ViolationWindows, res.Adaptive.MissedFaults, res.Trials, res.Adaptive.ReplayMS)
		fmt.Printf("  adapted  epoch %d: %d->%d groups (+%d admitted), %d edges admitted, %d decayed; %.1f%% fewer false alarms\n",
			res.FinalEpoch, res.BaseGroups, res.AdaptedGroups, res.GroupsAdmitted,
			res.EdgesAdmitted, res.DecayedEdges, res.FalseAlarmReductionPct)
	}
	if benchErr != nil {
		return benchErr
	}
	return writeJSON(jsonPath, "drift bench", res)
}

// runTimingBench replays stream-stretch timing faults through a
// structural-only and a timing-aware detector and scores the timing check's
// added detection against its clean-replay false alarms. The result lands
// in jsonPath when set.
func runTimingBench(o eval.TimingBench, jsonPath string) error {
	res, benchErr := eval.RunTimingBench(o)
	if res != nil {
		fmt.Printf("timing bench: %dh training, %dh clean replay, %d trials (delay %d windows, %d groups)\n",
			res.TrainHours, res.CleanHours, res.Trials, res.DelayWindows, res.Groups)
		fmt.Printf("  structural %d/%d trials caught, %d clean false alarms (%d violation windows)\n",
			res.Structural.Caught, res.Trials, res.Structural.CleanFalseAlarms, res.Structural.CleanViolationWindows)
		fmt.Printf("  timing     %d/%d trials caught, %d clean false alarms (%d violation windows, %d timing-flagged)\n",
			res.Timing.Caught, res.Trials, res.Timing.CleanFalseAlarms, res.Timing.CleanViolationWindows, res.CleanTimingFlags)
		fmt.Printf("  headline   %d/%d structurally-missed faults caught by the timing check (%.0f%%), %d cause=timing detections, %+d extra false alarms\n",
			res.TimingCaughtOfMissed, res.StructuralMissed, res.CatchPct, res.TimingCauseDetections, res.ExtraFalseAlarms)
	}
	if benchErr != nil {
		return benchErr
	}
	return writeJSON(jsonPath, "timing bench", res)
}

// runScenarioBench grades the multi-fault detector on the adversarial
// scenario library and writes the per-scenario table to jsonPath when set.
func runScenarioBench(o eval.ScenarioBench, jsonPath string) error {
	res, benchErr := eval.RunScenarioBench(o)
	if res != nil {
		fmt.Printf("scenario bench: %dh training, %dh clean replay, %d trials/scenario (%d groups)\n",
			res.TrainHours, res.CleanHours, res.Trials, res.Groups)
		fmt.Printf("  clean replay: %d false alarms\n", res.CleanFalseAlarms)
		for _, s := range res.Scenarios {
			switch {
			case s.Benign:
				fmt.Printf("  %-20s benign, %d/%d trials alert-free\n",
					s.Name, s.Trials-minInt(s.FalseAlarms, s.Trials), s.Trials)
			case s.DetectOnly:
				fmt.Printf("  %-20s detected %d/%d (%.0f%%), detect-only\n",
					s.Name, s.Detected, s.Trials, s.DetectionPct)
			default:
				fmt.Printf("  %-20s detected %d/%d (%.0f%%), ident P %.2f R %.2f, all-named %d/%d (%.0f%%)\n",
					s.Name, s.Detected, s.Trials, s.DetectionPct,
					s.IdentPrecision, s.IdentRecall, s.AllNamed, s.Trials, s.AllNamedPct)
			}
		}
		fmt.Printf("  floors: benign false alarms %d (want 0), storm-2 all-named %.0f%% (want >= 80%%)\n",
			res.BenignFalseAlarms, res.Storm2AllNamedPct)
	}
	if benchErr != nil {
		return benchErr
	}
	return writeJSON(jsonPath, "scenario bench", res)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// runActuators reproduces §5.1.3: actuator faults on the D_* datasets (the
// only ones with actuators).
func runActuators(specs []simhome.Spec, seed int64, proto eval.Protocol, workers int, emit func(*report.Table) error) error {
	var withActs []simhome.Spec
	for _, s := range specs {
		for _, d := range s.Devices {
			if d.Kind == 3 {
				withActs = append(withActs, s)
				break
			}
		}
	}
	if len(withActs) == 0 {
		return fmt.Errorf("no selected dataset has actuators (use the D_* datasets)")
	}
	results, err := evaluate(withActs, seed, eval.ActuatorProtocol(proto), workers)
	if err != nil {
		return err
	}
	t := report.Accuracy(results)
	t.Title = "§5.1.3 — Actuator Fault Accuracy (D_* datasets)"
	return emit(t)
}

// runMultiFault reproduces the §VI multi-fault discussion: 1-3 simultaneous
// faults with numThre=3.
func runMultiFault(specs []simhome.Spec, seed int64, proto eval.Protocol, emit func(*report.Table) error) error {
	results := make([]*eval.DatasetResult, 0, len(specs))
	for _, s := range specs {
		fmt.Fprintf(os.Stderr, "multifault %s...\n", s.Name)
		// The paper randomly picks 1-3 faults; we rotate the count across
		// trials deterministically by splitting trials into three batches.
		var pooled *eval.DatasetResult
		for n := 1; n <= 3; n++ {
			p := eval.MultiFaultProtocol(proto, 3)
			p.FaultsPerSegment = n
			p.Trials = proto.Trials / 3
			if p.Trials == 0 {
				p.Trials = 1
			}
			r, err := eval.EvaluateDataset(s, seed, p)
			if err != nil {
				return err
			}
			if pooled == nil {
				pooled = r
			} else {
				pooled.Detection.TP += r.Detection.TP
				pooled.Detection.FP += r.Detection.FP
				pooled.Detection.FN += r.Detection.FN
				pooled.Identification.TP += r.Identification.TP
				pooled.Identification.FP += r.Identification.FP
				pooled.Identification.FN += r.Identification.FN
			}
		}
		results = append(results, pooled)
	}
	t := report.Accuracy(results)
	t.Title = "§VI — Multi-Fault (1-3 simultaneous, numThre=3)"
	return emit(t)
}

// runAblations reproduces the §VI parameter study on D_houseA: shorter
// precomputation, shorter segments, and longer state-set durations.
func runAblations(seed int64, proto eval.Protocol, emit func(*report.Table) error) error {
	spec := simhome.SpecDHouseA()
	variants := []struct {
		label string
		mod   func(eval.Protocol) eval.Protocol
	}{
		{"baseline (300h, 6h seg, 1m)", func(p eval.Protocol) eval.Protocol { return p }},
		{"precompute 150h", func(p eval.Protocol) eval.Protocol { p.PrecomputeHours = 150; return p }},
		{"segment 3h", func(p eval.Protocol) eval.Protocol { p.SegmentHours = 3; return p }},
		{"duration 2m", func(p eval.Protocol) eval.Protocol { p.WindowsPerAggregate = 2; return p }},
		{"duration 5m", func(p eval.Protocol) eval.Protocol { p.WindowsPerAggregate = 5; return p }},
	}
	var results []*eval.AblationResult
	for _, v := range variants {
		fmt.Fprintf(os.Stderr, "ablation %q...\n", v.label)
		r, err := eval.RunAblation(spec, seed, v.mod(proto), v.label)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	return emit(report.Ablations(results))
}

// runBaselines quantifies Table 2.1: DICE against the prior-art-style
// baselines on identical data.
func runBaselines(specs []simhome.Spec, seed int64, proto eval.Protocol, emit func(*report.Table) error) error {
	t := &report.Table{
		Title:   "Table 2.1 (quantified) — DICE vs baselines",
		Headers: []string{"dataset", "detector", "det-precision", "det-recall", "mean-detect-min"},
	}
	for _, s := range specs {
		fmt.Fprintf(os.Stderr, "baselines %s...\n", s.Name)
		rows, err := baseline.Compare(s, seed, baseline.CompareConfig{
			PrecomputeHours: proto.PrecomputeHours,
			SegmentHours:    proto.SegmentHours,
			Trials:          proto.Trials,
			Seed:            proto.Seed,
		})
		if err != nil {
			return err
		}
		for _, row := range rows {
			t.AddRow(s.Name, row.Detector,
				fmt.Sprintf("%.1f%%", 100*row.Precision),
				fmt.Sprintf("%.1f%%", 100*row.Recall),
				fmt.Sprintf("%.1f", row.MeanDetectMinutes))
		}
	}
	return emit(t)
}
