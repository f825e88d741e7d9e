package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/device"
	"repro/internal/window"
)

// Partitioned DICE implements the §VI multi-user mitigation: "a user may
// group the sensors that are spatially closely located and connect each
// group to DICE individually to restrain the growing number of
// combinations." Each partition (by default one per room) trains and
// detects independently, so the joint state space is the *sum* of the
// per-room spaces instead of their product. The trade-off the paper
// implies also holds here: cross-room context (G2G transitions between
// rooms) is lost, so sequence faults that only violate inter-room order go
// unseen by a partitioned deployment.

// Partition is one independently monitored device group.
type Partition struct {
	// Name labels the partition (the room name for PartitionByRoom).
	Name string
	// Devices are the partition's members, ascending.
	Devices []device.ID
}

// PartitionByRoom groups a registry's devices by their Room field,
// returning partitions sorted by name. Devices with an empty room land in
// a partition named "".
func PartitionByRoom(reg *device.Registry) []Partition {
	byRoom := make(map[string][]device.ID)
	for _, d := range reg.All() {
		byRoom[d.Room] = append(byRoom[d.Room], d.ID)
	}
	names := make([]string, 0, len(byRoom))
	for name := range byRoom {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Partition, 0, len(names))
	for _, name := range names {
		out = append(out, Partition{Name: name, Devices: byRoom[name]})
	}
	return out
}

// subHome holds the projection machinery for one partition: a registry
// containing only its devices plus the slot remapping from the full
// layout.
type subHome struct {
	part    Partition
	layout  *window.Layout
	binMap  []int // sub binary slot -> full binary slot
	numMap  []int // sub numeric slot -> full numeric slot
	actKeep map[device.ID]device.ID
	fromSub map[device.ID]device.ID // sub device ID -> full device ID
}

func newSubHome(full *window.Layout, part Partition) (*subHome, error) {
	reg := device.NewRegistry()
	s := &subHome{
		part:    part,
		actKeep: make(map[device.ID]device.ID),
		fromSub: make(map[device.ID]device.ID),
	}
	for _, id := range part.Devices {
		d, err := full.Registry().Get(id)
		if err != nil {
			return nil, err
		}
		sub, err := reg.Add(d.Name, d.Kind, d.Type, d.Room)
		if err != nil {
			return nil, err
		}
		s.fromSub[sub] = id
		if d.Kind == device.Actuator {
			s.actKeep[id] = sub
		}
	}
	s.layout = window.NewLayout(reg)
	for slot := 0; slot < s.layout.NumBinary(); slot++ {
		fullID := s.fromSub[s.layout.BinaryID(slot)]
		fullSlot, ok := full.BinarySlot(fullID)
		if !ok {
			return nil, fmt.Errorf("core: partition device %d not binary in full layout", fullID)
		}
		s.binMap = append(s.binMap, fullSlot)
	}
	for slot := 0; slot < s.layout.NumNumeric(); slot++ {
		fullID := s.fromSub[s.layout.NumericID(slot)]
		fullSlot, ok := full.NumericSlot(fullID)
		if !ok {
			return nil, fmt.Errorf("core: partition device %d not numeric in full layout", fullID)
		}
		s.numMap = append(s.numMap, fullSlot)
	}
	return s, nil
}

// project extracts the partition's view of a full observation.
func (s *subHome) project(o *window.Observation) *window.Observation {
	out := s.layout.NewObservation(o.Index)
	for sub, fullSlot := range s.binMap {
		out.Binary[sub] = o.Binary[fullSlot]
	}
	for sub, fullSlot := range s.numMap {
		out.Numeric[sub] = o.Numeric[fullSlot]
	}
	for _, id := range o.Actuated {
		if sub, ok := s.actKeep[id]; ok {
			out.Actuated = append(out.Actuated, sub)
		}
	}
	return out
}

// PartitionedTrainer trains one DICE instance per partition from the same
// full-home observation stream.
type PartitionedTrainer struct {
	subs     []*subHome
	trainers []*Trainer
}

// NewPartitionedTrainer builds a trainer per partition over the full
// layout.
func NewPartitionedTrainer(full *window.Layout, parts []Partition, duration time.Duration) (*PartitionedTrainer, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: no partitions")
	}
	pt := &PartitionedTrainer{}
	for _, p := range parts {
		sub, err := newSubHome(full, p)
		if err != nil {
			return nil, err
		}
		pt.subs = append(pt.subs, sub)
		pt.trainers = append(pt.trainers, NewTrainer(sub.layout, duration))
	}
	return pt, nil
}

// Calibrate runs pass 1 on all partitions.
func (pt *PartitionedTrainer) Calibrate(o *window.Observation) error {
	for i, sub := range pt.subs {
		if err := pt.trainers[i].Calibrate(sub.project(o)); err != nil {
			return err
		}
	}
	return nil
}

// FinishCalibration freezes all partitions' thresholds.
func (pt *PartitionedTrainer) FinishCalibration() error {
	for _, t := range pt.trainers {
		if err := t.FinishCalibration(); err != nil {
			return err
		}
	}
	return nil
}

// Learn runs pass 2 on all partitions.
func (pt *PartitionedTrainer) Learn(o *window.Observation) error {
	for i, sub := range pt.subs {
		if err := pt.trainers[i].Learn(sub.project(o)); err != nil {
			return err
		}
	}
	return nil
}

// Detector builds the partitioned detector from the trained contexts.
func (pt *PartitionedTrainer) Detector(cfg Config) (*PartitionedDetector, error) {
	pd := &PartitionedDetector{}
	for i, t := range pt.trainers {
		ctx, err := t.Context()
		if err != nil {
			return nil, fmt.Errorf("core: partition %q: %w", pt.subs[i].part.Name, err)
		}
		det, err := New(ctx, WithConfig(cfg))
		if err != nil {
			return nil, err
		}
		pd.subs = append(pd.subs, pt.subs[i])
		pd.dets = append(pd.dets, det)
	}
	return pd, nil
}

// TotalGroups sums the per-partition group counts — the quantity the §VI
// mitigation keeps linear instead of multiplicative.
func (pt *PartitionedTrainer) TotalGroups() int {
	total := 0
	for _, t := range pt.trainers {
		if ctx, err := t.Context(); err == nil {
			total += ctx.NumGroups()
		}
	}
	return total
}

// PartitionedResult is one partition's finding for a window.
type PartitionedResult struct {
	// Partition names the sub-home that produced the result.
	Partition string
	// Result is the partition-local detector output with device IDs mapped
	// back to the full registry.
	Result Result
}

// PartitionedDetector runs the independent per-partition detectors over
// the full observation stream.
type PartitionedDetector struct {
	subs []*subHome
	dets []*Detector
}

// Process feeds a full-home window to every partition and returns the
// partitions that flagged something (detected or alerted). Device IDs in
// the results are translated back into the full registry's IDs.
func (pd *PartitionedDetector) Process(o *window.Observation) ([]PartitionedResult, error) {
	var out []PartitionedResult
	for i, sub := range pd.subs {
		res, err := pd.dets[i].Process(sub.project(o))
		if err != nil {
			return nil, err
		}
		if !res.Detected && res.Alert == nil {
			continue
		}
		res.Probable = sub.toFull(res.Probable)
		if len(res.Alerts) > 0 {
			remapped := make([]*Alert, 0, len(res.Alerts))
			for _, al := range res.Alerts {
				a := *al
				a.Devices = sub.toFull(a.Devices)
				remapped = append(remapped, &a)
			}
			res.Alerts = remapped
			res.Alert = remapped[0]
		} else if res.Alert != nil {
			a := *res.Alert
			a.Devices = sub.toFull(a.Devices)
			res.Alert = &a
		}
		out = append(out, PartitionedResult{Partition: sub.part.Name, Result: res})
	}
	return out, nil
}

// Reset clears all partition detectors.
func (pd *PartitionedDetector) Reset() {
	for _, d := range pd.dets {
		d.Reset()
	}
}

// toFull maps sub-registry device IDs back to full-registry IDs.
func (s *subHome) toFull(ids []device.ID) []device.ID {
	if len(ids) == 0 {
		return nil
	}
	out := make([]device.ID, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.fromSub[id])
	}
	slices.Sort(out)
	return out
}
