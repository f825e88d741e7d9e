package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/gateway"
)

// alertKey is the part of an alert the oracle compares: who was named, why,
// and in which windows it was detected and reported.
type alertKey struct {
	devices    string
	cause      core.CheckKind
	detectedAt time.Duration
	reportedAt time.Duration
}

func keyOf(a gateway.Alert) alertKey {
	return alertKey{devices: fmt.Sprint(deviceIDs(a.Devices)), cause: a.Cause, detectedAt: a.DetectedAt, reportedAt: a.ReportedAt}
}

func deviceIDs(ds []device.Device) []device.ID {
	ids := make([]device.ID, len(ds))
	for i, d := range ds {
		ids[i] = d.ID
	}
	return ids
}

// outcome is one home's end state: counters plus every alert, in order,
// and the device IDs each alert named (for scoring).
type outcome struct {
	stats  gateway.Stats
	alerts []alertKey
	named  [][]device.ID
}

func (o *outcome) add(a gateway.Alert) {
	o.alerts = append(o.alerts, keyOf(a))
	o.named = append(o.named, deviceIDs(a.Devices))
}

// gatewayOptions is the per-home option set shared by the hub tenants and
// the solo reference, so both run the same detector configuration. Every
// other option, the alert buffer included, keeps its default.
func (in *inputs) gatewayOptions() []gateway.Option {
	return []gateway.Option{gateway.WithConfig(core.Config{MaxFaults: in.maxFaults})}
}

// reference replays every home through its own solo gateway.Gateway, one
// batch per IngestBatch call and the same final advance, collecting the
// outcome the hub must reproduce exactly.
func reference(in *inputs, ctxs []*core.Context) ([]outcome, error) {
	out := make([]outcome, len(in.homes))
	for i := range in.homes {
		h := &in.homes[i]
		gw, err := gateway.New(ctxs[h.spec], in.gatewayOptions()...)
		if err != nil {
			return nil, err
		}
		o := &out[i]
		collect := func() {
			for {
				select {
				case a := <-gw.Alerts():
					o.add(a)
				default:
					return
				}
			}
		}
		for b := range h.starts {
			if err := gw.IngestBatch(h.batch(b)); err != nil {
				return nil, fmt.Errorf("reference %s batch %d: %w", h.name, b, err)
			}
			collect()
		}
		if err := gw.AdvanceTo(h.end); err != nil {
			return nil, fmt.Errorf("reference %s advance: %w", h.name, err)
		}
		collect()
		o.stats = gw.Stats()
	}
	return out, nil
}

// compare returns an error naming the first home whose hub outcome differs
// from the solo reference.
func compare(in *inputs, ref, got []outcome) error {
	for i := range in.homes {
		r, g := ref[i], got[i]
		if r.stats != g.stats {
			return fmt.Errorf("oracle: %s stats %+v, solo reference %+v", in.homes[i].name, g.stats, r.stats)
		}
		if len(r.alerts) != len(g.alerts) {
			return fmt.Errorf("oracle: %s raised %d alerts, solo reference %d", in.homes[i].name, len(g.alerts), len(r.alerts))
		}
		for k := range r.alerts {
			if r.alerts[k] != g.alerts[k] {
				return fmt.Errorf("oracle: %s alert %d is %+v, solo reference %+v", in.homes[i].name, k, g.alerts[k], r.alerts[k])
			}
		}
		if g.stats.AlertsDropped != 0 {
			return fmt.Errorf("oracle: %s dropped %d alerts", in.homes[i].name, g.stats.AlertsDropped)
		}
	}
	return nil
}

// score rates the devices the alerts named against the injected ground
// truth. Precision counts (alert, device) pairs: a device is a true
// positive when its home carries a fault on it that began at or before the
// alert's detection window; every device named on a fault-free home is a
// false positive. Recall is the share of injected faults whose device some
// alert named after the onset.
func score(in *inputs, ref []outcome) (precision, recall float64) {
	var tp, named, found, total int
	for i, h := range in.homes {
		hit := make([]bool, len(h.faults))
		for ai, a := range ref[i].alerts {
			for _, id := range ref[i].named[ai] {
				named++
				for k, f := range h.faults {
					if f.dev == id && a.detectedAt+windowDur > f.onset {
						tp++
						hit[k] = true
						break
					}
				}
			}
		}
		for _, ok := range hit {
			total++
			if ok {
				found++
			}
		}
	}
	if named > 0 {
		precision = float64(tp) / float64(named)
	}
	if total > 0 {
		recall = float64(found) / float64(total)
	}
	return precision, recall
}
