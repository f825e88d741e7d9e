package gateway

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/wal"
)

// walGateway builds a gateway with a WAL in dir, on a large alert buffer so
// nothing drops and alert comparisons stay exact.
func walGateway(t *testing.T, ctx *core.Context, dir string, extra ...Option) (*Gateway, *wal.Log) {
	t.Helper()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	opts := append([]Option{WithConfig(core.Config{}), WithAlertBuffer(4096), WithWAL(w)}, extra...)
	gw, err := New(ctx, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return gw, w
}

// mustRestore loads cp into a freshly built gateway.
func mustRestore(t *testing.T, gw *Gateway, cp *Checkpoint) {
	t.Helper()
	if err := gw.RestoreCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayWALCrashRecoveryBitIdentical is the headline durability
// property: hard-kill the gateway well past its last checkpoint (no drain,
// no final snapshot), restore a new instance from checkpoint + WAL replay,
// and require the stitched run — stats, alerts, Explain traces — to be
// bit-identical to one that never crashed. The checkpoint alone would lose
// every window after it; the WAL tail is what closes the gap.
func TestGatewayWALCrashRecoveryBitIdentical(t *testing.T) {
	h, ctx := trainedHome(t)
	evts := faultyAfternoon(t, h, 4)

	// Reference: uninterrupted, no WAL.
	ref, err := New(ctx, WithConfig(core.Config{}), WithAlertBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evts {
		if err := ref.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	refStats, refAlerts := ref.Stats(), drainAlerts(ref)
	if refStats.Violations == 0 || refStats.Alerts == 0 {
		t.Fatal("reference run produced no fault signal; the test is vacuous")
	}

	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ckpt := filepath.Join(dir, "gateway.ckpt")

	// First incarnation: checkpoint at 1h30m, keep ingesting until the
	// crash point at 2h30m30s, then vanish without any shutdown path.
	gw1, _ := walGateway(t, ctx, walDir)
	cpCut := 90 * time.Minute
	crashCut := 2*time.Hour + 30*time.Minute + 30*time.Second
	var alerts []Alert
	i := 0
	for ; i < len(evts) && evts[i].At < cpCut; i++ {
		if err := gw1.Ingest(evts[i]); err != nil {
			t.Fatal(err)
		}
	}
	alerts = append(alerts, drainAlerts(gw1)...)
	if err := WriteCheckpoint(ckpt, gw1.ExportCheckpoint()); err != nil {
		t.Fatal(err)
	}
	for ; i < len(evts) && evts[i].At < crashCut; i++ {
		if err := gw1.Ingest(evts[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: gw1 and its WAL handle are simply abandoned. Everything after
	// the checkpoint exists only in the WAL now. (The post-checkpoint alerts
	// gw1 emitted die with it; the restored instance re-emits them.)

	cp, err := ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if cp.WALSeq == 0 {
		t.Fatal("checkpoint carries no WAL sequence; replay dedup is untested")
	}
	gw2, w2 := walGateway(t, ctx, walDir)
	mustRestore(t, gw2, cp)
	if err := gw2.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if got, want := gw2.WALSeq(), w2.LastSeq(); got != want {
		t.Fatalf("recovered WALSeq %d, log tail %d", got, want)
	}
	for ; i < len(evts); i++ {
		if err := gw2.Ingest(evts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw2.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	alerts = append(alerts, drainAlerts(gw2)...)

	if got := gw2.Stats(); got != refStats {
		t.Errorf("recovered run diverged:\n reference: %+v\n recovered: %+v", refStats, got)
	}
	if !reflect.DeepEqual(alerts, refAlerts) {
		t.Errorf("alerts diverged across crash recovery:\n reference: %+v\n recovered: %+v", refAlerts, alerts)
	}

	// Checkpoint now, truncate the covered segments, and prove a third
	// incarnation still recovers from what remains.
	if err := WriteCheckpoint(ckpt, gw2.ExportCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if err := w2.TruncateThrough(gw2.WALSeq()); err != nil {
		t.Fatal(err)
	}
	cp3, err := ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	gw3, _ := walGateway(t, ctx, walDir)
	mustRestore(t, gw3, cp3)
	if err := gw3.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if got := gw3.Stats(); got != refStats {
		t.Errorf("post-truncation recovery diverged:\n reference: %+v\n recovered: %+v", refStats, got)
	}
}

// TestGatewayWALReplayIdempotentAnyCheckpoint is the property behind
// replay dedup: for a checkpoint taken at ANY point in the stream,
// restore + full-log replay must land on exactly the reference state — no
// double-applied prefix, no lost suffix. Only the alerts past each
// checkpoint are re-emitted.
func TestGatewayWALReplayIdempotentAnyCheckpoint(t *testing.T) {
	h, ctx := trainedHome(t)
	evts := faultyAfternoon(t, h, 4)

	dir := t.TempDir()
	gw, _ := walGateway(t, ctx, dir)
	// Checkpoint after every 10% of the stream, including before the first
	// op and after the last.
	cuts := map[int]bool{0: true, len(evts): true}
	for f := 1; f < 10; f++ {
		cuts[f*len(evts)/10] = true
	}
	cps := map[int]*Checkpoint{}
	for i, e := range evts {
		if cuts[i] {
			cps[i] = gw.ExportCheckpoint()
		}
		if err := gw.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	cps[len(evts)] = gw.ExportCheckpoint()
	if err := gw.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	refStats, refAlerts := gw.Stats(), drainAlerts(gw)
	if refStats.Alerts == 0 || refStats.AlertsDropped != 0 {
		t.Fatalf("bad reference run: %+v", refStats)
	}

	for at, cp := range cps {
		gw2, _ := walGateway(t, ctx, dir)
		mustRestore(t, gw2, cp)
		if err := gw2.RecoverWAL(); err != nil {
			t.Fatalf("checkpoint at op %d: %v", at, err)
		}
		if got := gw2.Stats(); got != refStats {
			t.Errorf("checkpoint at op %d: stats diverged:\n reference: %+v\n recovered: %+v", at, refStats, got)
		}
		suffix := drainAlerts(gw2)
		want := refAlerts[cp.Stats.Alerts:]
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(suffix, want) {
			t.Errorf("checkpoint at op %d: re-emitted alerts diverged:\n want: %+v\n got:  %+v", at, want, suffix)
		}
	}
}

// TestGatewayWALLostLogKeepsSequence: a checkpoint restored over an empty
// log (its WAL directory deleted, as a pre-DICEWAL2 one must be) continues
// the checkpoint's sequence space, so events ingested afterwards survive
// a crash before the next checkpoint instead of replaying as covered.
func TestGatewayWALLostLogKeepsSequence(t *testing.T) {
	h, ctx := trainedHome(t)
	evts := faultyAfternoon(t, h, 4)

	ref, err := New(ctx, WithConfig(core.Config{}), WithAlertBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evts {
		if err := ref.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	refStats := ref.Stats()

	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	gw1, _ := walGateway(t, ctx, walDir)
	i := 0
	for ; i < len(evts) && evts[i].At < 2*time.Hour; i++ {
		if err := gw1.Ingest(evts[i]); err != nil {
			t.Fatal(err)
		}
	}
	cp := gw1.ExportCheckpoint()
	if cp.WALSeq == 0 {
		t.Fatal("checkpoint carries no WAL sequence; the test is vacuous")
	}
	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}

	// Restore over the empty log, ingest a little, then crash.
	gw2, w2 := walGateway(t, ctx, walDir)
	mustRestore(t, gw2, cp)
	if err := gw2.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	for ; i < len(evts) && evts[i].At < 2*time.Hour+30*time.Minute; i++ {
		if err := gw2.Ingest(evts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := gw2.WALSeq(), w2.LastSeq(); got != want || got <= cp.WALSeq {
		t.Fatalf("WALSeq %d, log tail %d, checkpoint %d: the log restarted its sequence", got, want, cp.WALSeq)
	}

	gw3, _ := walGateway(t, ctx, walDir)
	mustRestore(t, gw3, cp)
	if err := gw3.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	for ; i < len(evts); i++ {
		if err := gw3.Ingest(evts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := gw3.Stats(); got != refStats {
		t.Errorf("events logged after the lost WAL did not survive the crash:\n reference: %+v\n recovered: %+v", refStats, got)
	}
}

// TestGatewayWALReplayYieldsToAlertConsumer: replay re-emits alerts far
// faster than live ingest, so on a busy processor it can fill the alert
// channel before the consumer goroutine, already runnable, gets to run. A
// replaying gateway must yield to that consumer rather than count drops:
// with one processor and a one-slot buffer, recovery delivers every alert.
func TestGatewayWALReplayYieldsToAlertConsumer(t *testing.T) {
	h, ctx := trainedHome(t)
	evts := faultyAfternoon(t, h, 4)
	dir := t.TempDir()
	gw1, _ := walGateway(t, ctx, dir)
	for _, e := range evts {
		if err := gw1.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	want := gw1.Stats()
	if want.Alerts < 2 {
		t.Fatalf("stream raised %d alerts; the test needs a burst", want.Alerts)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	gw2, _ := walGateway(t, ctx, dir, WithAlertBuffer(1))
	got := make(chan int)
	go func() {
		n := 0
		for range gw2.Alerts() {
			if n++; n == int(want.Alerts) {
				break
			}
		}
		got <- n
	}()
	if err := gw2.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	if st := gw2.Stats(); st != want {
		t.Fatalf("recovered stats %+v, want %+v", st, want)
	}
	if n := <-got; n != int(want.Alerts) {
		t.Fatalf("consumer received %d alerts, want %d", n, want.Alerts)
	}
}

// TestGatewayWALPoisonReplaySkipped: a record whose application panics
// (here via the ingest-hook fault seam) must not wedge recovery — it is
// dead-lettered and skipped, and the recovered state matches a run that
// never saw the poison event.
func TestGatewayWALPoisonReplaySkipped(t *testing.T) {
	h, ctx := trainedHome(t)
	evts := faultyAfternoon(t, h, 2)
	poisonAt := 61 * time.Minute
	poison := func(e event.Event) error {
		if e.At == poisonAt && e.Value == 666 {
			panic("poison event")
		}
		return nil
	}

	// Reference: the clean stream, no poison event ever offered.
	ref, err := New(ctx, WithConfig(core.Config{}), WithAlertBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evts {
		if err := ref.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.AdvanceTo(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	refStats, refAlerts := ref.Stats(), drainAlerts(ref)

	dir := t.TempDir()
	deadPath := filepath.Join(t.TempDir(), "dead.jsonl")
	gw1, _ := walGateway(t, ctx, dir, WithIngestHook(poison), WithHome("casa"))
	var alerts []Alert
	i := 0
	for ; i < len(evts) && evts[i].At <= poisonAt; i++ {
		if err := gw1.Ingest(evts[i]); err != nil {
			t.Fatal(err)
		}
	}
	// The poison event: logged to the WAL, then the hook panics before any
	// state mutates — exactly what a malformed event that crashes the
	// detector looks like from outside.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("poison event did not panic")
			}
		}()
		gw1.Ingest(event.Event{At: poisonAt, Device: evts[0].Device, Value: 666}) //nolint:errcheck
	}()
	alerts = append(alerts, drainAlerts(gw1)...)
	// Crash and recover from WAL alone (cold start): replay re-encounters
	// the poison record, dead-letters it, and keeps going.
	gw2, _ := walGateway(t, ctx, dir,
		WithIngestHook(poison), WithHome("casa"), WithDeadLetter(wal.OpenDeadLetter(deadPath)))
	if err := gw2.RecoverWAL(); err != nil {
		t.Fatal(err)
	}
	for ; i < len(evts); i++ {
		if err := gw2.Ingest(evts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw2.AdvanceTo(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	alerts = append(alerts, drainAlerts(gw2)...)

	if got := gw2.Stats(); got != refStats {
		t.Errorf("post-poison recovery diverged:\n reference: %+v\n recovered: %+v", refStats, got)
	}
	if !reflect.DeepEqual(alerts, refAlerts) {
		t.Errorf("alerts diverged after poison skip:\n reference: %+v\n recovered: %+v", refAlerts, alerts)
	}

	data, err := os.ReadFile(deadPath)
	if err != nil {
		t.Fatalf("no dead-letter file: %v", err)
	}
	var entry wal.DeadLetterEntry
	if err := json.Unmarshal(bytes.Split(data, []byte("\n"))[0], &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Home != "casa" || entry.Value != 666 || !entry.Replayed || entry.Panic != "poison event" {
		t.Errorf("dead-letter entry mismatch: %+v", entry)
	}
}

// TestGatewayLivenessRebase: a gateway restored after downtime longer than
// the silence threshold must not declare the whole home dark — the clock
// jump is the gateway's outage, not the devices'. After the rebase the
// tracker works normally: genuinely silent devices still go dark.
func TestGatewayLivenessRebase(t *testing.T) {
	h, ctx := trainedHome(t)
	const thr = 45 * time.Minute
	gw, err := New(ctx, WithConfig(core.Config{}), WithLiveness(thr))
	if err != nil {
		t.Fatal(err)
	}
	start := 3 * 24 * 60
	evts := h.Events(start, start+60)
	for _, e := range evts {
		e.At -= time.Duration(start) * time.Minute
		if err := gw.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	cp := gw.ExportCheckpoint()

	// Restart after a 3-hour outage: the first live op lands at 4h.
	gw2, err := New(ctx, WithConfig(core.Config{}), WithLiveness(thr))
	if err != nil {
		t.Fatal(err)
	}
	mustRestore(t, gw2, cp)
	if err := gw2.AdvanceTo(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if st := gw2.Stats(); st.DarkDevices != 0 || st.LivenessAlerts != 0 {
		t.Fatalf("restart after downtime declared devices dark: %+v", st)
	}
	// The rebase is one-shot: from here silence accrues normally, so
	// another threshold-exceeding quiet stretch darkens every device.
	if err := gw2.AdvanceTo(4*time.Hour + thr + 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	if st := gw2.Stats(); st.DarkDevices == 0 {
		t.Fatalf("tracker dead after rebase: %+v", st)
	}

	// Control: a seamless resume (clock jump below the threshold) must not
	// shift anything — restart bit-identity depends on it.
	gw3, err := New(ctx, WithConfig(core.Config{}), WithLiveness(thr))
	if err != nil {
		t.Fatal(err)
	}
	mustRestore(t, gw3, cp)
	if err := gw3.AdvanceTo(70 * time.Minute); err != nil {
		t.Fatal(err)
	}
	ref, err := New(ctx, WithConfig(core.Config{}), WithLiveness(thr))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evts {
		e.At -= time.Duration(start) * time.Minute
		if err := ref.Ingest(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.AdvanceTo(70 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got, want := gw3.Stats(), ref.Stats(); got != want {
		t.Errorf("seamless resume diverged from uninterrupted run:\n reference: %+v\n resumed:   %+v", want, got)
	}
}

// TestCheckpointCorruptEnvelope: flipping one byte of an enveloped
// checkpoint must surface ErrCorruptCheckpoint (so callers can fall back
// to cold start + WAL replay), and the bare JSON payload without the
// envelope must fail with ErrLegacyCheckpoint instead.
func TestCheckpointCorruptEnvelope(t *testing.T) {
	_, ctx := trainedHome(t)
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gw.ckpt")
	if err := WriteCheckpoint(path, gw.ExportCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); err != nil {
		t.Fatalf("pristine enveloped checkpoint rejected: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("corrupt checkpoint error = %v, want ErrCorruptCheckpoint", err)
	}

	// Legacy file: the JSON payload without any envelope.
	if err := os.WriteFile(path, data[12:], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(path); !errors.Is(err, ErrLegacyCheckpoint) {
		t.Errorf("plain-JSON checkpoint error = %v, want ErrLegacyCheckpoint", err)
	}
}

// TestGatewayWALIngestZeroAlloc guards the acceptance criterion that the
// WAL does not put allocations on the hot path: once buffers are warm,
// logging an ingest record allocates nothing.
func TestGatewayWALIngestZeroAlloc(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var buf []byte
	rec := wal.IngestRecord(event.Event{At: time.Minute, Device: 3, Value: 1})
	// Warm the encode buffer and the log's scratch frame.
	buf = rec.AppendTo(buf[:0])
	if _, err := w.Append(buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = rec.AppendTo(buf[:0])
		if _, err := w.Append(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WAL append path allocates %.1f per op, want 0", allocs)
	}
}
