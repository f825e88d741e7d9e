package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/eval"
)

func writeRecord(t *testing.T, dir, name string, r *eval.Record) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRun(t *testing.T) {
	dir := t.TempDir()
	rec := func(rate float64) *eval.Record {
		return &eval.Record{Experiment: "timing", Metrics: []eval.Metric{
			{Name: "catch_pct", Value: rate, Unit: "pct", Better: eval.Higher, Bound: 0.15},
		}}
	}
	base := writeRecord(t, dir, "base.json", rec(100))
	ok := writeRecord(t, dir, "ok.json", rec(90))
	regressed := writeRecord(t, dir, "regressed.json", rec(50))
	other := writeRecord(t, dir, "other.json", &eval.Record{Experiment: "drift", Metrics: rec(100).Metrics})
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"catch_pct": 100}`), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.json")
	for _, c := range []struct {
		name            string
		baseline, fresh string
		wantErr         string // substring; empty = passes
	}{
		{"within bound", base, ok, ""},
		{"regressed", base, regressed, "catch_pct regressed"},
		{"experiment mismatch", base, other, `"drift" checked against a "timing" baseline`},
		{"missing baseline passes", missing, ok, ""},
		{"missing baseline still applies floors", missing, writeRecord(t, dir, "floor.json", &eval.Record{
			Experiment: "timing", Metrics: []eval.Metric{{Name: "clean_timing_flags", Value: 1, Better: eval.Lower, Max: new(float64)}},
		}), "clean_timing_flags = 1"},
		{"missing fresh fails", base, missing, "fresh record"},
		{"legacy file is not a record", legacy, ok, "not a benchmark record"},
		{"flags required", "", ok, "required"},
	} {
		err := run(c.baseline, c.fresh)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: run = %v, want pass", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: run = %v, want %q", c.name, err, c.wantErr)
		}
	}
}
