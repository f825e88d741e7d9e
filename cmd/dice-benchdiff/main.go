// Command dice-benchdiff is the CI perf gate: it checks a freshly
// generated benchmark record against the committed baseline and exits
// non-zero when the fresh record breaks one of its declarations.
//
// Usage:
//
//	dice-benchdiff -baseline BENCH_drift.json -fresh fresh.json
//
// Both files are eval.Record JSON as `dice-eval -out` writes it. The record
// names its experiment and declares, metric by metric, what the gate
// applies (eval.Record.Check): absolute floors on every run, a regression
// bound against the baseline for the few ratios worth tracking, exact
// equality for values the experiment's constants fix, and the same
// experiment on both sides. Every gated figure is a count ratio from a
// deterministic replay or a same-process throughput ratio, not raw
// events/sec, so the gate holds across machines of different speeds.
//
// A baseline that does not exist yet is not a failure: a benchmark
// introduced in the same change has a fresh file but no committed
// baseline, so the gate checks the fresh record's floors, prints a notice
// and passes (the next commit of the fresh file becomes the baseline). A
// missing fresh file still fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/eval"
)

func main() {
	baseline := flag.String("baseline", "", "committed baseline record")
	fresh := flag.String("fresh", "", "freshly generated record")
	flag.Parse()
	if err := run(*baseline, *fresh); err != nil {
		fmt.Fprintln(os.Stderr, "dice-benchdiff:", err)
		os.Exit(1)
	}
}

func run(baseline, fresh string) error {
	if baseline == "" || fresh == "" {
		return fmt.Errorf("both -baseline and -fresh are required")
	}
	cur, err := load(fresh)
	if err != nil {
		return fmt.Errorf("fresh record: %w", err)
	}
	if _, err := os.Stat(baseline); os.IsNotExist(err) {
		// A benchmark introduced in this change has no committed baseline
		// yet; committing the fresh file creates one for the next run.
		if err := cur.Check(nil); err != nil {
			return err
		}
		fmt.Printf("%s gate: no baseline at %s yet, floors hold (commit the fresh file to create one)\n", cur.Experiment, baseline)
		return nil
	}
	base, err := load(baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	if err := cur.Check(base); err != nil {
		return err
	}
	fmt.Printf("%s gate: %d metrics hold against %s\n", cur.Experiment, len(cur.Metrics), baseline)
	return nil
}

func load(path string) (*eval.Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r eval.Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if r.Experiment == "" || len(r.Metrics) == 0 {
		return nil, fmt.Errorf("%s is not a benchmark record (no experiment or no metrics)", path)
	}
	return &r, nil
}
