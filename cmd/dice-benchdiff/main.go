// Command dice-benchdiff is the CI perf gate: it compares a freshly
// generated benchmark JSON against the committed baseline and exits
// non-zero on a regression beyond the tolerance.
//
// Usage:
//
//	dice-benchdiff -mode hub     -baseline BENCH_hub.json     -fresh /tmp/fresh.json [-tolerance 0.15]
//	dice-benchdiff -mode eval    -baseline BENCH_eval.json    -fresh /tmp/fresh.json [-tolerance 0.15]
//	dice-benchdiff -mode cluster -baseline BENCH_cluster.json -fresh /tmp/fresh.json [-tolerance 0.15]
//	dice-benchdiff -mode drift   -baseline BENCH_drift.json   -fresh /tmp/fresh.json [-tolerance 0.15]
//	dice-benchdiff -mode timing  -baseline BENCH_timing.json  -fresh /tmp/fresh.json [-tolerance 0.15]
//	dice-benchdiff -mode scenarios -baseline BENCH_scenarios.json -fresh /tmp/fresh.json [-tolerance 0.15]
//
// A baseline that does not exist yet is not a failure: a benchmark
// introduced in the same change has a fresh file but no committed
// baseline, so the gate prints a notice and passes (the next commit of
// the fresh file becomes the baseline). A missing fresh file still fails.
//
// Raw events/sec depends on the machine, so the gate compares
// machine-normalized ratios that cancel hardware speed out of the
// comparison:
//
//   - hub: the binary-path speedup (events_per_sec / json_events_per_sec).
//     Both passes run in the same process on the same machine, so their
//     ratio moves only when the relative cost of the binary ingest path
//     changes — which is exactly the regression the gate watches for. The
//     fresh run must also report bit_identical detection output.
//   - eval: replay wall-clock normalized by training wall-clock
//     (wall_clock_ms / Σ train_ms). Training is a pure-compute yardstick
//     that rescales with the machine; the ratio tracks the evaluation hot
//     path relative to it.
//   - cluster: federation efficiency (events_per_sec / solo_events_per_sec).
//     Both runs replay the same streams in the same process, so the ratio
//     isolates the overhead of HTTP routing, proxying, and migration from
//     machine speed. The fresh run must also report bit_identical — the
//     cluster reproduced the solo gateway's output exactly through a
//     migration and a fail-over.
//   - drift: the false-alarm reduction (1 - adaptive/static false alarms)
//     the adapter achieves on the drifted stream. The quantity is a count
//     ratio from a deterministic replay — no hardware term at all — so a
//     drop beyond the tolerance means the adaptation logic itself got
//     worse. A fresh run in which the adaptive arm misses any injected
//     fault, or fails to beat the static arm outright, fails regardless of
//     tolerance, and so does one whose adaptation counts (final epoch,
//     groups and edges admitted, decayed edges, adapted groups) differ
//     from the baseline's: the replay is deterministic, so a difference is
//     a behaviour change or a stale baseline.
//   - timing: the share of structurally-missed timing faults the timing
//     check catches (catch_pct) — a count ratio from a deterministic
//     replay, no hardware term. Correctness floors are absolute: the fresh
//     run must catch at least 80% and must report zero timing-flagged
//     clean windows and zero extra false alarms.
//   - scenarios: the adversarial scenario library. Floors are absolute
//     (zero benign/clean false alarms; the two-fault storm names every
//     injected device in at least 80% of trials); the tolerance applies
//     to the storm-2 all-named rate against the baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// hubBench mirrors the BENCH_hub.json fields the gate reads.
type hubBench struct {
	EventsPerSec     float64 `json:"events_per_sec"`
	JSONEventsPerSec float64 `json:"json_events_per_sec"`
	Speedup          float64 `json:"speedup"`
	BitIdentical     bool    `json:"bit_identical"`
}

// evalBench mirrors the BENCH_eval.json fields the gate reads.
type evalBench struct {
	WallClockMS float64 `json:"wall_clock_ms"`
	Datasets    []struct {
		TrainMS float64 `json:"train_ms"`
	} `json:"datasets"`
}

// clusterBench mirrors the BENCH_cluster.json fields the gate reads.
type clusterBench struct {
	EventsPerSec     float64 `json:"events_per_sec"`
	SoloEventsPerSec float64 `json:"solo_events_per_sec"`
	Efficiency       float64 `json:"efficiency"`
	BitIdentical     bool    `json:"bit_identical"`
}

// driftBench mirrors the BENCH_drift.json fields the gate reads.
type driftBench struct {
	Static struct {
		FalseAlarms int `json:"false_alarms"`
	} `json:"static"`
	Adaptive struct {
		FalseAlarms  int `json:"false_alarms"`
		MissedFaults int `json:"missed_faults"`
	} `json:"adaptive"`
	ReductionPct float64 `json:"false_alarm_reduction_pct"`
	driftCounts
}

// driftCounts are the adaptation counts of the drift replay. The replay is
// deterministic, so they must equal the baseline exactly.
type driftCounts struct {
	FinalEpoch     int `json:"final_epoch"`
	GroupsAdmitted int `json:"groups_admitted"`
	EdgesAdmitted  int `json:"edges_admitted"`
	DecayedEdges   int `json:"decayed_edges"`
	AdaptedGroups  int `json:"adapted_groups"`
}

// timingBench mirrors the BENCH_timing.json fields the gate reads.
type timingBench struct {
	CatchPct             float64 `json:"catch_pct"`
	StructuralMissed     int     `json:"structural_missed"`
	TimingCaughtOfMissed int     `json:"timing_caught_of_missed"`
	CleanTimingFlags     int     `json:"clean_timing_flags"`
	ExtraFalseAlarms     int     `json:"extra_false_alarms"`
}

// scenariosBench mirrors the BENCH_scenarios.json fields the gate reads.
type scenariosBench struct {
	CleanFalseAlarms  int     `json:"clean_false_alarms"`
	BenignFalseAlarms int     `json:"benign_false_alarms"`
	Storm2AllNamedPct float64 `json:"storm2_all_named_pct"`
	Scenarios         []struct {
		Name        string `json:"name"`
		Benign      bool   `json:"benign"`
		Trials      int    `json:"trials"`
		Detected    int    `json:"detected"`
		FalseAlarms int    `json:"false_alarms"`
	} `json:"scenarios"`
}

func main() {
	mode := flag.String("mode", "hub", "which benchmark schema to compare: hub or eval")
	baseline := flag.String("baseline", "", "committed baseline JSON")
	fresh := flag.String("fresh", "", "freshly generated JSON")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional regression before failing")
	flag.Parse()
	if err := run(*mode, *baseline, *fresh, *tolerance); err != nil {
		fmt.Fprintln(os.Stderr, "dice-benchdiff:", err)
		os.Exit(1)
	}
}

func run(mode, baseline, fresh string, tolerance float64) error {
	if baseline == "" || fresh == "" {
		return fmt.Errorf("both -baseline and -fresh are required")
	}
	if tolerance < 0 || tolerance >= 1 {
		return fmt.Errorf("tolerance %v out of range [0, 1)", tolerance)
	}
	if _, err := os.Stat(fresh); err != nil {
		return fmt.Errorf("fresh benchmark missing: %w", err)
	}
	if _, err := os.Stat(baseline); os.IsNotExist(err) {
		// A benchmark introduced in this change has no committed baseline
		// yet; committing the fresh file creates one for the next run.
		fmt.Printf("%s perf gate: no baseline at %s yet, skipping comparison (commit the fresh file to create one)\n", mode, baseline)
		return nil
	}
	switch mode {
	case "hub":
		return diffHub(baseline, fresh, tolerance)
	case "eval":
		return diffEval(baseline, fresh, tolerance)
	case "cluster":
		return diffCluster(baseline, fresh, tolerance)
	case "drift":
		return diffDrift(baseline, fresh, tolerance)
	case "timing":
		return diffTiming(baseline, fresh, tolerance)
	case "scenarios":
		return diffScenarios(baseline, fresh, tolerance)
	default:
		return fmt.Errorf("unknown mode %q (want hub, eval, cluster, drift, timing, or scenarios)", mode)
	}
}

func load(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}

// diffHub gates on the binary/JSON speedup ratio: higher is better, and a
// fresh ratio more than tolerance below the baseline fails.
func diffHub(baseline, fresh string, tolerance float64) error {
	var base, cur hubBench
	if err := load(baseline, &base); err != nil {
		return err
	}
	if err := load(fresh, &cur); err != nil {
		return err
	}
	if base.Speedup <= 0 || cur.Speedup <= 0 {
		return fmt.Errorf("speedup missing: baseline=%v fresh=%v (regenerate with dice-eval -exp hub)", base.Speedup, cur.Speedup)
	}
	if !cur.BitIdentical {
		return fmt.Errorf("fresh run reports bit_identical=false: binary and JSON wire paths diverged")
	}
	floor := base.Speedup * (1 - tolerance)
	fmt.Printf("hub perf gate: baseline speedup %.2fx, fresh %.2fx (floor %.2fx, raw %s events/sec fresh vs %s baseline)\n",
		base.Speedup, cur.Speedup, floor, fmtRate(cur.EventsPerSec), fmtRate(base.EventsPerSec))
	if cur.Speedup < floor {
		return fmt.Errorf("binary ingest speedup regressed: %.2fx < %.2fx (baseline %.2fx - %d%%)",
			cur.Speedup, floor, base.Speedup, int(tolerance*100))
	}
	return nil
}

// diffEval gates on wall-clock normalized by training time: lower is
// better, and a fresh ratio more than tolerance above the baseline fails.
func diffEval(baseline, fresh string, tolerance float64) error {
	var base, cur evalBench
	if err := load(baseline, &base); err != nil {
		return err
	}
	if err := load(fresh, &cur); err != nil {
		return err
	}
	baseRatio, err := evalRatio(base, baseline)
	if err != nil {
		return err
	}
	curRatio, err := evalRatio(cur, fresh)
	if err != nil {
		return err
	}
	ceil := baseRatio * (1 + tolerance)
	fmt.Printf("eval perf gate: baseline wall/train ratio %.3f, fresh %.3f (ceiling %.3f)\n", baseRatio, curRatio, ceil)
	if curRatio > ceil {
		return fmt.Errorf("evaluation wall-clock regressed: ratio %.3f > %.3f (baseline %.3f + %d%%)",
			curRatio, ceil, baseRatio, int(tolerance*100))
	}
	return nil
}

// diffCluster gates on federation efficiency (cluster throughput over solo
// throughput, same process): higher is better, and a fresh ratio more than
// tolerance below the baseline fails. Bit-identity is non-negotiable.
func diffCluster(baseline, fresh string, tolerance float64) error {
	var base, cur clusterBench
	if err := load(baseline, &base); err != nil {
		return err
	}
	if err := load(fresh, &cur); err != nil {
		return err
	}
	if base.Efficiency <= 0 || cur.Efficiency <= 0 {
		return fmt.Errorf("efficiency missing: baseline=%v fresh=%v (regenerate with dice-eval -exp cluster)", base.Efficiency, cur.Efficiency)
	}
	if !cur.BitIdentical {
		return fmt.Errorf("fresh run reports bit_identical=false: cluster output diverged from solo replay")
	}
	floor := base.Efficiency * (1 - tolerance)
	fmt.Printf("cluster perf gate: baseline efficiency %.3f, fresh %.3f (floor %.3f, raw %s events/sec fresh vs %s solo)\n",
		base.Efficiency, cur.Efficiency, floor, fmtRate(cur.EventsPerSec), fmtRate(cur.SoloEventsPerSec))
	if cur.Efficiency < floor {
		return fmt.Errorf("cluster efficiency regressed: %.3f < %.3f (baseline %.3f - %d%%)",
			cur.Efficiency, floor, base.Efficiency, int(tolerance*100))
	}
	return nil
}

// diffDrift gates on the adapter's false-alarm reduction: higher is
// better, and a fresh reduction more than tolerance below the baseline
// fails. Correctness floors are absolute: the adaptive arm must miss zero
// injected faults and must beat the static arm's false-alarm count, and
// the adaptation counts must equal the baseline's.
func diffDrift(baseline, fresh string, tolerance float64) error {
	var base, cur driftBench
	if err := load(baseline, &base); err != nil {
		return err
	}
	if err := load(fresh, &cur); err != nil {
		return err
	}
	if cur.Adaptive.MissedFaults > 0 {
		return fmt.Errorf("adaptive arm missed %d injected faults: adaptation taught the detector to excuse faults", cur.Adaptive.MissedFaults)
	}
	if cur.Adaptive.FalseAlarms >= cur.Static.FalseAlarms {
		return fmt.Errorf("adaptation no longer reduces false alarms: adaptive %d >= static %d",
			cur.Adaptive.FalseAlarms, cur.Static.FalseAlarms)
	}
	if cur.driftCounts != base.driftCounts {
		return fmt.Errorf("adaptation counts differ from the baseline: fresh %+v, baseline %+v (the replay is deterministic; regenerate the baseline with make bench-drift if the change is intended)",
			cur.driftCounts, base.driftCounts)
	}
	if base.ReductionPct <= 0 || cur.ReductionPct <= 0 {
		return fmt.Errorf("false_alarm_reduction_pct missing: baseline=%v fresh=%v (regenerate with dice-eval -exp drift)",
			base.ReductionPct, cur.ReductionPct)
	}
	floor := base.ReductionPct * (1 - tolerance)
	fmt.Printf("drift gate: baseline false-alarm reduction %.1f%%, fresh %.1f%% (floor %.1f%%, adaptive %d vs static %d alarms, 0 missed faults)\n",
		base.ReductionPct, cur.ReductionPct, floor, cur.Adaptive.FalseAlarms, cur.Static.FalseAlarms)
	if cur.ReductionPct < floor {
		return fmt.Errorf("false-alarm reduction regressed: %.1f%% < %.1f%% (baseline %.1f%% - %d%%)",
			cur.ReductionPct, floor, base.ReductionPct, int(tolerance*100))
	}
	return nil
}

// diffTiming gates on the timing check's catch rate over structurally
// missed faults: higher is better, and a fresh rate more than tolerance
// below the baseline fails. Correctness floors are absolute: at least 80%
// caught, zero timing-flagged clean windows, zero extra false alarms, and
// a non-vacuous structural miss count.
func diffTiming(baseline, fresh string, tolerance float64) error {
	var base, cur timingBench
	if err := load(baseline, &base); err != nil {
		return err
	}
	if err := load(fresh, &cur); err != nil {
		return err
	}
	if cur.CleanTimingFlags > 0 {
		return fmt.Errorf("timing check flagged %d clean windows: the check now raises false alarms", cur.CleanTimingFlags)
	}
	if cur.ExtraFalseAlarms > 0 {
		return fmt.Errorf("timing arm raised %d extra clean false alarms", cur.ExtraFalseAlarms)
	}
	if cur.StructuralMissed == 0 {
		return fmt.Errorf("structural arm missed nothing: the benchmark is vacuous (regenerate with dice-eval -exp timing)")
	}
	if cur.CatchPct < 80 {
		return fmt.Errorf("timing check caught %.0f%% of structurally missed faults, floor is 80%%", cur.CatchPct)
	}
	if base.CatchPct <= 0 {
		return fmt.Errorf("catch_pct missing from baseline (regenerate with dice-eval -exp timing)")
	}
	floor := base.CatchPct * (1 - tolerance)
	fmt.Printf("timing gate: baseline catch %.0f%%, fresh %.0f%% (floor %.0f%%, %d/%d structurally-missed faults caught, 0 clean flags)\n",
		base.CatchPct, cur.CatchPct, floor, cur.TimingCaughtOfMissed, cur.StructuralMissed)
	if cur.CatchPct < floor {
		return fmt.Errorf("timing catch rate regressed: %.0f%% < %.0f%% (baseline %.0f%% - %d%%)",
			cur.CatchPct, floor, base.CatchPct, int(tolerance*100))
	}
	return nil
}

// diffScenarios gates on the scenario library's accuracy floors.
// Correctness floors are absolute: zero clean and benign false alarms, and
// the two-fault storm's alerts name every injected device in at least 80%
// of trials. The tolerance additionally holds the storm-2 all-named rate
// near the baseline so a weaker identifier cannot coast down to the floor
// unnoticed.
func diffScenarios(baseline, fresh string, tolerance float64) error {
	var base, cur scenariosBench
	if err := load(baseline, &base); err != nil {
		return err
	}
	if err := load(fresh, &cur); err != nil {
		return err
	}
	if cur.CleanFalseAlarms > 0 {
		return fmt.Errorf("clean replay raised %d alerts: the detector false-alarms on fault-free data", cur.CleanFalseAlarms)
	}
	if cur.BenignFalseAlarms > 0 {
		return fmt.Errorf("benign scenarios raised %d alerts: occupancy changes must not alert", cur.BenignFalseAlarms)
	}
	if cur.Storm2AllNamedPct < 80 {
		return fmt.Errorf("storm-2 named every injected device in %.0f%% of trials, floor is 80%%", cur.Storm2AllNamedPct)
	}
	if len(cur.Scenarios) == 0 {
		return fmt.Errorf("fresh run reports no scenarios (regenerate with dice-eval -exp scenarios)")
	}
	if base.Storm2AllNamedPct <= 0 {
		return fmt.Errorf("storm2_all_named_pct missing from baseline (regenerate with dice-eval -exp scenarios)")
	}
	floor := base.Storm2AllNamedPct * (1 - tolerance)
	fmt.Printf("scenarios gate: baseline storm-2 all-named %.0f%%, fresh %.0f%% (floor %.0f%%, %d scenarios, 0 benign false alarms)\n",
		base.Storm2AllNamedPct, cur.Storm2AllNamedPct, floor, len(cur.Scenarios))
	if cur.Storm2AllNamedPct < floor {
		return fmt.Errorf("storm-2 all-named rate regressed: %.0f%% < %.0f%% (baseline %.0f%% - %d%%)",
			cur.Storm2AllNamedPct, floor, base.Storm2AllNamedPct, int(tolerance*100))
	}
	return nil
}

func evalRatio(b evalBench, path string) (float64, error) {
	var train float64
	for _, d := range b.Datasets {
		train += d.TrainMS
	}
	if train <= 0 || b.WallClockMS <= 0 {
		return 0, fmt.Errorf("%s: missing wall_clock_ms or train_ms (regenerate with dice-eval)", path)
	}
	return b.WallClockMS / train, nil
}

func fmtRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
