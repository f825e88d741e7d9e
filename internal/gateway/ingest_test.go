package gateway

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/wal"
)

// livenessAlerts drains gw's alerts and keeps the liveness ones as
// "device@detected/reported", in delivery order.
func livenessAlerts(gw *Gateway) []string {
	var out []string
	for _, a := range drainAlerts(gw) {
		if a.Cause == core.CheckLiveness {
			out = append(out, fmt.Sprintf("%d@%s/%s", a.Explain.Steps[0].Suspects[0], a.DetectedAt, a.ReportedAt))
		}
	}
	return out
}

// TestGatewayLivenessOutsideRegistry: the silence tracker records IDs the
// registry never issued — negative ones and ones past its end — exactly as
// registry devices, and every reader visits all of them in ascending ID
// order: the sweep's alerts, Liveness(), the checkpoint's LastSeenMS and
// Dark, a restore, and the post-restore rebase. The expected values were
// recorded from the map-based tracker this table replaced.
func TestGatewayLivenessOutsideRegistry(t *testing.T) {
	_, ctx := trainedHome(t)
	const thr = 30 * time.Minute
	n := device.ID(ctx.Layout().Registry().Len())
	gw, err := New(ctx, WithConfig(core.Config{}), WithLiveness(thr), WithAlertBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []device.ID{2, n + 5, -3, 0, n + 1} {
		if err := gw.Ingest(event.Event{At: time.Duration(i+1) * time.Minute, Device: id, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.AdvanceTo(40 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := gw.Ingest(event.Event{At: 41 * time.Minute, Device: n + 5, Value: 1}); err != nil {
		t.Fatal(err)
	}
	wantAlerts := []string{
		"-3@33m0s/40m0s",
		"0@34m0s/40m0s",
		"2@31m0s/40m0s",
		fmt.Sprintf("%d@35m0s/40m0s", n+1),
		fmt.Sprintf("%d@32m0s/40m0s", n+5),
	}
	if got := livenessAlerts(gw); !reflect.DeepEqual(got, wantAlerts) {
		t.Errorf("liveness alerts %q, want %q", got, wantAlerts)
	}
	wantLive := []DeviceLiveness{
		{Device: -3, LastSeen: 3 * time.Minute, Dark: true},
		{Device: 0, Name: "motion-kitchen-0", LastSeen: 4 * time.Minute, Dark: true},
		{Device: 2, Name: "motion-bedroom-2", LastSeen: 1 * time.Minute, Dark: true},
		{Device: n + 1, LastSeen: 5 * time.Minute, Dark: true},
		{Device: n + 5, LastSeen: 41 * time.Minute},
	}
	if got := gw.Liveness(); !reflect.DeepEqual(got, wantLive) {
		t.Errorf("Liveness() = %+v\nwant %+v", got, wantLive)
	}
	if st := gw.Stats(); st.LivenessAlerts != 5 || st.DarkDevices != 4 {
		t.Errorf("stats %+v, want 5 liveness alerts and 4 dark devices", st)
	}

	cp := gw.ExportCheckpoint()
	wantSeen := map[device.ID]int64{-3: 180000, 0: 240000, 2: 60000, n + 1: 300000, n + 5: 2460000}
	if !reflect.DeepEqual(cp.LastSeenMS, wantSeen) {
		t.Errorf("checkpoint LastSeenMS = %v, want %v", cp.LastSeenMS, wantSeen)
	}
	if want := []device.ID{-3, 0, 2, n + 1}; !reflect.DeepEqual(cp.Dark, want) {
		t.Errorf("checkpoint Dark = %v, want %v", cp.Dark, want)
	}

	// Restore through the JSON envelope, then resume after a 2-hour outage:
	// every last-seen stamp shifts by the 120-minute gap. The first live
	// event's own device is stamped after the shift, at its own 161m.
	env, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCheckpoint(env)
	if err != nil {
		t.Fatal(err)
	}
	rgw, err := New(ctx, WithConfig(core.Config{}), WithLiveness(thr), WithAlertBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	mustRestore(t, rgw, back)
	if got := rgw.Liveness(); !reflect.DeepEqual(got, wantLive) {
		t.Errorf("restored Liveness() = %+v\nwant %+v", got, wantLive)
	}
	if st := rgw.Stats(); st.DarkDevices != 4 {
		t.Errorf("restored DarkDevices = %d, want 4", st.DarkDevices)
	}
	if err := rgw.Ingest(event.Event{At: 161 * time.Minute, Device: 1, Value: 1}); err != nil {
		t.Fatal(err)
	}
	wantRebased := []DeviceLiveness{
		{Device: -3, LastSeen: 123 * time.Minute, Dark: true},
		{Device: 0, Name: "motion-kitchen-0", LastSeen: 124 * time.Minute, Dark: true},
		{Device: 1, Name: "motion-bathroom-1", LastSeen: 161 * time.Minute},
		{Device: 2, Name: "motion-bedroom-2", LastSeen: 121 * time.Minute, Dark: true},
		{Device: n + 1, LastSeen: 125 * time.Minute, Dark: true},
		{Device: n + 5, LastSeen: 161 * time.Minute},
	}
	if got := rgw.Liveness(); !reflect.DeepEqual(got, wantRebased) {
		t.Errorf("rebased Liveness() = %+v\nwant %+v", got, wantRebased)
	}
	if got := livenessAlerts(rgw); len(got) != 0 {
		t.Errorf("rebase raised liveness alerts %q", got)
	}
	if err := rgw.AdvanceTo(200 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// Device 1 and n+5 both last reported at 161m, so both go dark 30m later.
	if got, want := livenessAlerts(rgw), []string{"1@3h11m0s/3h20m0s", fmt.Sprintf("%d@3h11m0s/3h20m0s", n+5)}; !reflect.DeepEqual(got, want) {
		t.Errorf("post-rebase liveness alerts %q, want %q", got, want)
	}
}

// TestGatewayRefusedIngestLeavesNoTrace: an event Ingest refuses because
// it regresses before the open window must leave the counters, the silence
// tracker and the WAL as they were — and so replay of the log rebuilds the
// live gateway's state.
func TestGatewayRefusedIngestLeavesNoTrace(t *testing.T) {
	_, ctx := trainedHome(t)
	dir := t.TempDir()
	gw, w := walGateway(t, ctx, dir, WithLiveness(30*time.Minute))
	a, b := device.ID(0), device.ID(2)
	for _, e := range []event.Event{{At: time.Minute, Device: a, Value: 1}, {At: 100 * time.Minute, Device: b, Value: 1}} {
		if err := gw.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	st, live, seq := gw.Stats(), gw.Liveness(), w.LastSeq()
	if st.LivenessAlerts != 1 || st.DarkDevices != 1 {
		t.Fatalf("device %d not dark before the refused event: %+v", a, st)
	}
	err := gw.Ingest(event.Event{At: 50 * time.Minute, Device: a, Value: 1})
	if err == nil || !strings.Contains(err.Error(), "regresses before window 100") {
		t.Fatalf("Ingest of a regressed event: %v, want a refusal", err)
	}
	if got := gw.Stats(); got != st {
		t.Errorf("refused Ingest changed stats: %+v, was %+v", got, st)
	}
	if got := gw.Liveness(); !reflect.DeepEqual(got, live) {
		t.Errorf("refused Ingest changed liveness: %+v, was %+v", got, live)
	}
	if got := w.LastSeq(); got != seq {
		t.Errorf("refused Ingest reached the WAL: LastSeq %d, was %d", got, seq)
	}
	if got := gw.WALSeq(); got != seq {
		t.Errorf("WALSeq %d, want %d", got, seq)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rgw, rw := walGateway(t, ctx, dir, WithLiveness(30*time.Minute))
	defer rw.Close()
	if err := rgw.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if got := rgw.Stats(); got != st {
		t.Errorf("replayed stats %+v, want the live gateway's %+v", got, st)
	}
}

// divisionRule is the batch validation rule stated plainly: no event
// behind the horizon, and no event whose window, int(At/duration), is
// below the running window index.
func divisionRule(horizon time.Duration, idx int, dur time.Duration, evts []event.Event) error {
	for _, e := range evts {
		if e.At < horizon {
			return fmt.Errorf("gateway: event at %s regresses behind %s", e.At, horizon)
		}
		w := int(e.At / dur)
		if w < idx {
			return fmt.Errorf("gateway: event at %s regresses before window %d", e.At, idx)
		}
		idx = w
	}
	return nil
}

// TestIngestBatchValidationMatchesDivisionRule drives a gateway with random
// batches that stay in the open window, cross into later ones, regress
// within a later window, fall behind the open window and fall behind the
// horizon, and requires IngestBatch (and Ingest, for one-event batches) to
// make the same accept/refuse decision as divisionRule, with the same
// error text.
func TestIngestBatchValidationMatchesDivisionRule(t *testing.T) {
	_, ctx := trainedHome(t)
	gw, err := New(ctx, WithConfig(core.Config{}), WithAlertBuffer(1))
	if err != nil {
		t.Fatal(err)
	}
	dur := gw.builder.Duration()
	rng := rand.New(rand.NewSource(22))
	refused := map[string]int{}
	for round := 0; round < 3000; round++ {
		if rng.Intn(8) == 0 {
			if err := gw.AdvanceTo(gw.horizon + time.Duration(rng.Int63n(int64(3*dur)))); err != nil {
				t.Fatal(err)
			}
		}
		open := time.Duration(gw.builder.CurrentIndex()) * dur
		batch := make([]event.Event, 1+rng.Intn(6))
		at := open
		for i := range batch {
			switch rng.Intn(10) {
			case 0: // behind the horizon (or before time zero)
				at = gw.horizon - 1 - time.Duration(rng.Int63n(int64(dur)))
			case 1: // into an earlier window
				at = open - time.Duration(rng.Int63n(int64(2*dur)))
			case 2: // back within the current running window
				at -= time.Duration(rng.Int63n(int64(dur) / 2))
			case 3: // onto a window boundary, or one tick either side
				at = at.Truncate(dur) + dur + time.Duration(rng.Intn(3)-1)
			case 4, 5: // into a later window
				at += time.Duration(1+rng.Intn(3)) * dur
			default: // forward within the window
				at += time.Duration(rng.Int63n(int64(dur) / 4))
			}
			batch[i] = event.Event{At: at, Device: device.ID(rng.Intn(8)), Value: 1}
		}
		want := divisionRule(gw.horizon, gw.builder.CurrentIndex(), dur, batch)
		var got error
		if len(batch) == 1 && rng.Intn(2) == 0 {
			got = gw.Ingest(batch[0])
		} else {
			got = gw.IngestBatch(batch)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("round %d: batch %v: got %v, division rule says %v", round, batch, got, want)
		}
		if want != nil {
			refused[strings.Fields(want.Error())[5]]++
		}
	}
	if refused["behind"] == 0 || refused["before"] == 0 {
		t.Errorf("random batches never exercised both refusals: %v", refused)
	}

	// A checkpoint read from disk can carry a negative window index and
	// horizon. Integer division truncates toward zero there, so the rule's
	// windows are no longer plain intervals; validation must still agree.
	cp := gw.ExportCheckpoint()
	cp.Builder.Floor, cp.Builder.Cur = -3, nil
	cp.HorizonMS = (-4 * dur).Milliseconds()
	mustRestore(t, gw, cp)
	for round := 0; round < 2000; round++ {
		batch := make([]event.Event, 1+rng.Intn(6))
		for i := range batch {
			at := time.Duration(rng.Intn(7)-5) * dur
			switch rng.Intn(3) {
			case 0:
				at += time.Duration(rng.Intn(3) - 1)
			case 1:
				at += time.Duration(rng.Int63n(int64(dur)))
			}
			batch[i] = event.Event{At: at, Device: 0, Value: 1}
		}
		want := divisionRule(gw.horizon, gw.builder.CurrentIndex(), dur, batch)
		if got := gw.validateLocked(batch); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("negative window: batch %v: got %v, division rule says %v", batch, got, want)
		}
	}
}

// TestIngestBatchSteadyStateAllocFree: once warm, IngestBatch of a real
// stream — 64-event batches turning windows over through the detector —
// allocates nothing, with a SyncNever WAL attached and without one. The
// silence tracker runs too, with a threshold no device reaches.
func TestIngestBatchSteadyStateAllocFree(t *testing.T) {
	h, ctx := trainedHome(t)
	batches := streamBatches(h.Events(3*24*60, 3*24*60+6*60), 64)
	for _, name := range []string{"wal", "mem"} {
		durable := name == "wal"
		t.Run(name, func(t *testing.T) {
			opts := []Option{WithConfig(core.Config{}), WithLiveness(24 * time.Hour)}
			if durable {
				w, err := wal.Open(filepath.Join(t.TempDir(), "wal"), wal.Options{Sync: wal.SyncNever, SegmentSize: 1 << 30})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				opts = append(opts, WithWAL(w))
			}
			gw, err := New(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up on the first half: every device seen, buffers grown.
			half := len(batches) / 2
			for _, b := range batches[:half] {
				if err := gw.IngestBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			drainAlerts(gw)
			before := gw.Stats()
			next := half
			allocs := testing.AllocsPerRun(half-2, func() {
				if err := gw.IngestBatch(batches[next]); err != nil {
					t.Fatal(err)
				}
				next++
			})
			st := gw.Stats()
			if st.Windows == before.Windows {
				t.Fatalf("measured batches closed no window: %+v", st)
			}
			if st.Violations != before.Violations {
				t.Fatalf("measured batches raised %d violations; pick a clean stretch", st.Violations-before.Violations)
			}
			if allocs != 0 {
				t.Errorf("steady-state IngestBatch allocates %v times per batch, want 0", allocs)
			}
		})
	}
}

// streamBatches rebases a stretch of the home's stream to time zero and
// cuts it into batches of size events (the last one shorter).
func streamBatches(evts []event.Event, size int) [][]event.Event {
	if len(evts) == 0 {
		return nil
	}
	base := evts[0].At.Truncate(time.Minute)
	var out [][]event.Event
	for len(evts) > 0 {
		n := min(size, len(evts))
		b := make([]event.Event, n)
		for i, e := range evts[:n] {
			e.At -= base
			b[i] = e
		}
		out = append(out, b)
		evts = evts[n:]
	}
	return out
}

// BenchmarkGatewayIngestBatch prices durable and in-memory batch ingest:
// six hours of D_houseA after training, in 64-event batches, through a
// gateway with a SyncNever WAL ("wal") and without one ("mem"). A fresh
// gateway (and an emptied log) takes over, off the clock, whenever the
// stream runs out. Alerts overflow the channel and are counted as dropped,
// as on a gateway nobody drains. Reports ns/event.
func BenchmarkGatewayIngestBatch(b *testing.B) {
	h, ctx := trainedHome(b)
	batches := streamBatches(h.Events(3*24*60, 3*24*60+6*60), 64)
	for _, name := range []string{"wal", "mem"} {
		durable := name == "wal"
		b.Run(name, func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "wal")
			var (
				gw *Gateway
				w  *wal.Log
			)
			fresh := func() {
				opts := []Option{WithConfig(core.Config{})}
				if durable {
					if w != nil {
						w.Close()
					}
					if err := os.RemoveAll(dir); err != nil {
						b.Fatal(err)
					}
					var err error
					if w, err = wal.Open(dir, wal.Options{Sync: wal.SyncNever}); err != nil {
						b.Fatal(err)
					}
					opts = append(opts, WithWAL(w))
				}
				var err error
				if gw, err = New(ctx, opts...); err != nil {
					b.Fatal(err)
				}
			}
			fresh()
			events := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(batches)
				if k == 0 && i > 0 {
					b.StopTimer()
					fresh()
					b.StartTimer()
				}
				if err := gw.IngestBatch(batches[k]); err != nil {
					b.Fatal(err)
				}
				events += len(batches[k])
			}
			b.StopTimer()
			if w != nil {
				w.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}
