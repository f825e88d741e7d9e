package eval

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/simhome"
	"repro/internal/wal"
)

// RecoveryBench configures the crash-recovery benchmark: one home's stream
// is replayed through a gateway under each WAL fsync policy to price
// durability on the ingest hot path, then a crash is simulated mid-stream
// (checkpoint at half, WAL tail beyond it) and recovery is timed.
type RecoveryBench struct {
	// Hours of stream replayed (default 2).
	Hours int
	// Seed drives the simulation (default 21).
	Seed int64
	// CheckpointAt is the fraction of the stream covered by the checkpoint
	// the crashed process left behind (default 0.5); everything after it
	// must come back from WAL replay alone.
	CheckpointAt float64
	// Dir holds the WAL segments and checkpoint (default: a temp dir,
	// removed afterwards).
	Dir string
}

func (o RecoveryBench) normalize() RecoveryBench {
	if o.Hours <= 0 {
		o.Hours = 2
	}
	if o.Seed == 0 {
		o.Seed = 21
	}
	if o.CheckpointAt <= 0 || o.CheckpointAt >= 1 {
		o.CheckpointAt = 0.5
	}
	return o
}

// RecoveryPolicyResult is one fsync policy's ingest cost.
type RecoveryPolicyResult struct {
	Policy       string  `json:"policy"` // "none" = no WAL attached
	ReplayMS     float64 `json:"replay_ms"`
	EventsPerSec float64 `json:"events_per_sec"`
	// OverheadPct is the replay slowdown relative to the no-WAL baseline.
	OverheadPct float64 `json:"overhead_pct"`
}

// RecoveryBenchResult is the outcome of one recovery benchmark run.
type RecoveryBenchResult struct {
	Hours        int                    `json:"hours"`
	Events       int64                  `json:"events"`
	Policies     []RecoveryPolicyResult `json:"policies"`
	CheckpointAt float64                `json:"checkpoint_at"`
	// ReplayedRecords is how many WAL records recovery re-applied (the
	// tail past the checkpoint, including clock advances).
	ReplayedRecords uint64  `json:"replayed_records"`
	RecoveryMS      float64 `json:"recovery_ms"`
	RecoveredPerSec float64 `json:"recovered_events_per_sec"`
	// BitIdentical reports whether the recovered gateway's stats match the
	// uncrashed run exactly — the property the WAL exists to provide.
	BitIdentical bool `json:"bit_identical"`
}

// RunRecoveryBench prices the WAL (per fsync policy) and times a
// checkpoint+WAL crash recovery, verifying the recovered state matches an
// uncrashed replay bit-for-bit.
func RunRecoveryBench(o RecoveryBench) (*RecoveryBenchResult, error) {
	o = o.normalize()
	spec := simhome.SpecDHouseA()
	spec.Name = "recovery-bench"
	trainH := 3 * 24
	spec.Hours = trainH + o.Hours + 1
	home, err := simhome.New(spec, o.Seed)
	if err != nil {
		return nil, err
	}
	trainW := trainH * 60
	tr := core.NewTrainer(home.Layout(), time.Minute)
	for i := 0; i < trainW; i++ {
		if err := tr.Calibrate(home.Window(i)); err != nil {
			return nil, err
		}
	}
	if err := tr.FinishCalibration(); err != nil {
		return nil, err
	}
	for i := 0; i < trainW; i++ {
		if err := tr.Learn(home.Window(i)); err != nil {
			return nil, err
		}
	}
	cctx, err := tr.Context()
	if err != nil {
		return nil, err
	}

	evts := home.Events(trainW, trainW+o.Hours*60)
	stream := make([]event.Event, len(evts))
	for i, e := range evts {
		e.At -= time.Duration(trainW) * time.Minute
		stream[i] = e
	}
	end := time.Duration(o.Hours) * time.Hour

	dir := o.Dir
	if dir == "" {
		dir, err = os.MkdirTemp("", "dice-recovery-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	res := &RecoveryBenchResult{Hours: o.Hours, Events: int64(len(stream)), CheckpointAt: o.CheckpointAt}

	// Price each fsync policy against a no-WAL baseline.
	replay := func(w *wal.Log) (time.Duration, gateway.Stats, error) {
		opts := []gateway.Option{gateway.WithAlertBuffer(len(stream))}
		if w != nil {
			opts = append(opts, gateway.WithWAL(w))
		}
		gw, err := gateway.New(cctx, opts...)
		if err != nil {
			return 0, gateway.Stats{}, err
		}
		start := time.Now()
		for _, e := range stream {
			if err := gw.Ingest(e); err != nil {
				return 0, gateway.Stats{}, err
			}
		}
		if err := gw.AdvanceTo(end); err != nil {
			return 0, gateway.Stats{}, err
		}
		return time.Since(start), gw.Stats(), nil
	}
	baseTime, refStats, err := replay(nil)
	if err != nil {
		return nil, err
	}
	addPolicy := func(name string, d time.Duration) {
		p := RecoveryPolicyResult{Policy: name, ReplayMS: float64(d.Microseconds()) / 1000}
		if s := d.Seconds(); s > 0 {
			p.EventsPerSec = float64(len(stream)) / s
		}
		if baseTime > 0 {
			p.OverheadPct = 100 * (float64(d)/float64(baseTime) - 1)
		}
		res.Policies = append(res.Policies, p)
	}
	addPolicy("none", baseTime)
	for _, pol := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncBatch, wal.SyncNever} {
		wdir := fmt.Sprintf("%s/price-%s", dir, pol)
		w, err := wal.Open(wdir, wal.Options{Sync: pol})
		if err != nil {
			return nil, err
		}
		d, st, err := replay(w)
		if err != nil {
			return nil, err
		}
		if cerr := w.Close(); cerr != nil {
			return nil, cerr
		}
		if st != refStats {
			return nil, fmt.Errorf("eval: %s-policy replay diverged from baseline", pol)
		}
		addPolicy(pol.String(), d)
	}

	// Crash simulation: full stream through a WAL-backed gateway, with a
	// checkpoint covering the first CheckpointAt of it. The "crash" is
	// simply abandoning that gateway; recovery rebuilds from the
	// checkpoint file plus the WAL tail and must land on refStats.
	crashDir := dir + "/crash"
	w, err := wal.Open(crashDir, wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		return nil, err
	}
	gw, err := gateway.New(cctx, gateway.WithAlertBuffer(len(stream)), gateway.WithWAL(w))
	if err != nil {
		return nil, err
	}
	cut := int(float64(len(stream)) * o.CheckpointAt)
	cpPath := crashDir + "/bench.ckpt"
	for i, e := range stream {
		if i == cut {
			if err := gateway.WriteCheckpoint(cpPath, gw.ExportCheckpoint()); err != nil {
				return nil, err
			}
		}
		if err := gw.Ingest(e); err != nil {
			return nil, err
		}
	}
	if err := gw.AdvanceTo(end); err != nil {
		return nil, err
	}
	if err := w.Sync(); err != nil {
		return nil, err
	}
	// Crash: gw and its in-memory state are abandoned here.

	w2, err := wal.Open(crashDir, wal.Options{Sync: wal.SyncBatch})
	if err != nil {
		return nil, err
	}
	defer w2.Close()
	recovered, err := gateway.New(cctx, gateway.WithAlertBuffer(len(stream)), gateway.WithWAL(w2))
	if err != nil {
		return nil, err
	}
	recStart := time.Now()
	cp, err := gateway.ReadCheckpoint(cpPath)
	if err != nil {
		return nil, err
	}
	if err := recovered.RestoreCheckpoint(cp); err != nil {
		return nil, err
	}
	if err := recovered.RecoverWAL(); err != nil {
		return nil, err
	}
	recTime := time.Since(recStart)

	res.ReplayedRecords = w2.LastSeq() - cp.WALSeq
	res.RecoveryMS = float64(recTime.Microseconds()) / 1000
	replayedEvents := refStats.Events - cp.Stats.Events
	if s := recTime.Seconds(); s > 0 {
		res.RecoveredPerSec = float64(replayedEvents) / s
	}
	res.BitIdentical = recovered.Stats() == refStats
	if !res.BitIdentical {
		return res, fmt.Errorf("eval: recovered stats diverged:\n got  %+v\n want %+v", recovered.Stats(), refStats)
	}
	return res, nil
}
