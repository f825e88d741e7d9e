package hub

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
)

// soloAlerts is one home's reference stream and alert sequence, checked to
// hold at least min alerts so a one-slot hub buffer has to fill.
func soloAlerts(t *testing.T, min int) (*core.Context, []event.Event, []gateway.Alert) {
	t.Helper()
	h, cctx := trained(t)
	stream := homeStream(t, h, 1)
	_, want := soloRun(t, cctx, stream)
	if len(want) < min {
		t.Fatalf("reference home raised %d alerts, want at least %d to overflow a 1-slot buffer", len(want), min)
	}
	return cctx, stream, want
}

// slotHub is a one-shard hub with a one-slot alert buffer and home-a
// registered.
func slotHub(t *testing.T, cctx *core.Context, opts ...Option) *Hub {
	t.Helper()
	hub, err := New(append([]Option{WithShards(1), WithAlertBuffer(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Register("home-a", cctx, tenantGwOpts...); err != nil {
		t.Fatal(err)
	}
	return hub
}

// feed queues the whole stream for home-a as one batch, then the closing
// advance. Both return once queued; the shard applies them later.
func feed(t *testing.T, hub *Hub, stream []event.Event) {
	t.Helper()
	if err := hub.IngestBatch("home-a", stream); err != nil {
		t.Fatal(err)
	}
	if err := hub.Advance("home-a", streamEnd); err != nil {
		t.Fatal(err)
	}
}

// alertsDropped reads the hub's drop counter.
func alertsDropped(hub *Hub) float64 {
	return hub.Telemetry().SnapshotMap()[metricHubAlertsDropped]
}

// within fails the test unless fn returns inside d.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestHubSlowConsumerLosesNoAlerts holds the hub's alert channel to one
// slot and reads it with a consumer that sleeps on every alert. The shard
// must wait for the consumer instead of dropping, so every alert of the
// home arrives, in the solo run's order, and the drop counter stays at 0.
func TestHubSlowConsumerLosesNoAlerts(t *testing.T) {
	cctx, stream, want := soloAlerts(t, 2)
	hub := slotHub(t, cctx)
	defer hub.Close()

	got := make(chan []gateway.Alert, 1)
	go func() {
		var seq []gateway.Alert
		for len(seq) < len(want) {
			a := <-hub.Alerts()
			if a.Home == "home-a" {
				seq = append(seq, a.Alert)
			}
			time.Sleep(time.Millisecond)
		}
		got <- seq
	}()
	for _, e := range stream {
		if err := hub.Ingest("home-a", e); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Advance("home-a", streamEnd); err != nil {
		t.Fatal(err)
	}
	within(t, 30*time.Second, "DrainAll", func() {
		if err := hub.DrainAll(); err != nil {
			t.Error(err)
		}
	})
	var seq []gateway.Alert
	select {
	case seq = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("consumer never received every alert")
	}
	if !reflect.DeepEqual(seq, want) {
		t.Errorf("alert sequence diverged: got %d alerts, want %d", len(seq), len(want))
	}
	if n := alertsDropped(hub); n != 0 {
		t.Errorf("%s = %v, want 0", metricHubAlertsDropped, n)
	}
}

// TestHubStalledConsumerBlocksDrain: with a full buffer and nobody
// reading, the shard that raised the next alert waits, and DrainAll waits
// with it. Once the consumer resumes, DrainAll returns and every alert
// arrives in order, none dropped.
func TestHubStalledConsumerBlocksDrain(t *testing.T) {
	cctx, stream, want := soloAlerts(t, 2)
	hub := slotHub(t, cctx)
	defer hub.Close()
	feed(t, hub, stream)

	drained := make(chan error, 1)
	go func() { drained <- hub.DrainAll() }()
	select {
	case err := <-drained:
		t.Fatalf("DrainAll returned (%v) while the consumer was stalled", err)
	case <-time.After(200 * time.Millisecond):
	}
	if n := alertsDropped(hub); n != 0 {
		t.Fatalf("a stalled consumer cost %v alerts", n)
	}

	var got []gateway.Alert
	for len(got) < len(want) {
		select {
		case a := <-hub.Alerts():
			got = append(got, a.Alert)
		case <-time.After(10 * time.Second):
			t.Fatalf("received %d/%d alerts after resuming", len(got), len(want))
		}
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("DrainAll still blocked after the consumer resumed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("alert sequence diverged: got %d alerts, want %d", len(got), len(want))
	}
	if n := alertsDropped(hub); n != 0 {
		t.Errorf("%s = %v, want 0", metricHubAlertsDropped, n)
	}
}

// TestHubRunHousekeepingUnderAlertStorm runs Run with a 1 ms checkpoint
// interval and a 2 ms idle eviction over four homes raising alerts into a
// one-slot buffer, with a consumer slower than the shards. CheckpointAll
// and Evict drain the shards, which wait on the buffer Run empties, so Run
// must keep receiving while they run. It must return once cancelled, with
// no alert dropped and, unless eviction cut a home's stream short, every
// alert the homes raise delivered.
func TestHubRunHousekeepingUnderAlertStorm(t *testing.T) {
	h, cctx := trained(t)
	const homes = 4
	hub, err := New(WithShards(2), WithAlertBuffer(1), WithCheckpointDir(t.TempDir()),
		WithCheckpointInterval(time.Millisecond), WithIdleEviction(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	streams := make([][]event.Event, homes)
	want := 0
	for i := 0; i < homes; i++ {
		streams[i] = homeStream(t, h, i)
		_, alerts := soloRun(t, cctx, streams[i])
		want += len(alerts)
		if _, err := hub.Register(fmt.Sprintf("home-%d", i), cctx, tenantGwOpts...); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	received := 0
	runErr := make(chan error, 1)
	go func() {
		runErr <- hub.Run(ctx, func(TenantAlert) {
			mu.Lock()
			received++
			mu.Unlock()
			time.Sleep(100 * time.Microsecond)
		})
	}()

	var wg sync.WaitGroup
	var cut atomic.Bool
	for i := 0; i < homes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			home := fmt.Sprintf("home-%d", i)
			for _, e := range streams[i] {
				// Idle eviction may unregister a home whose shard sat
				// waiting on the buffer; its producer stops there.
				if err := hub.Ingest(home, e); errors.Is(err, ErrUnknownHome) {
					cut.Store(true)
					return
				} else if err != nil {
					t.Error(err)
					return
				}
			}
			if err := hub.Advance(home, streamEnd); errors.Is(err, ErrUnknownHome) {
				cut.Store(true)
			} else if err != nil {
				t.Error(err)
			}
		}(i)
	}
	within(t, 60*time.Second, "the producers", wg.Wait)
	// Idle eviction then takes every home while the shards may still be
	// raising the last alerts.
	deadline := time.Now().Add(10 * time.Second)
	for len(hub.Homes()) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if received == 0 {
		t.Fatal("the storm raised no alerts; the test is vacuous")
	}
	if !cut.Load() && received != want {
		t.Errorf("Run delivered %d alerts, the homes raise %d", received, want)
	}
	if n := alertsDropped(hub); n != 0 {
		t.Errorf("%s = %v, want 0", metricHubAlertsDropped, n)
	}
}

// TestHubStopWithFullBufferNoConsumer: Close and Kill must return when the
// buffer is full and nobody reads, counting each alert they could not
// deliver instead of waiting for a consumer that never comes.
func TestHubStopWithFullBufferNoConsumer(t *testing.T) {
	cctx, stream, want := soloAlerts(t, 3)
	for _, stop := range []string{"Close", "Kill"} {
		t.Run(stop, func(t *testing.T) {
			hub := slotHub(t, cctx)
			tn, _ := hub.Tenant("home-a")
			feed(t, hub, stream)
			// Let the shard fill the buffer and block on the next alert.
			deadline := time.Now().Add(10 * time.Second)
			for len(hub.alerts) < cap(hub.alerts) && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(20 * time.Millisecond)
			within(t, 30*time.Second, stop, func() {
				if stop == "Close" {
					if err := hub.Close(); err != nil {
						t.Error(err)
					}
				} else {
					hub.Kill()
				}
			})
			dropped := int64(alertsDropped(hub))
			raised := tn.Stats().Alerts
			if dropped == 0 {
				t.Errorf("%s with a full buffer counted no drops", stop)
			}
			if buffered := int64(len(hub.alerts)); buffered+dropped != raised {
				t.Errorf("%d buffered + %d dropped != %d raised", buffered, dropped, raised)
			}
			if stop == "Close" && raised != int64(len(want)) {
				// Close applies every queued op, so the whole stream's
				// alerts are raised (and all but the buffered one dropped).
				t.Errorf("Close raised %d alerts, want %d", raised, len(want))
			}
		})
	}
}

// TestHubCloseDeliversWhatFits: an alert raised while Close drains the
// shards still goes to the buffer when it has room. Only a send that would
// block is dropped, so with a buffer as large as the stream's alerts Close
// drops nothing and leaves every alert buffered, in order.
func TestHubCloseDeliversWhatFits(t *testing.T) {
	cctx, stream, want := soloAlerts(t, 2)
	hub, err := New(WithShards(1), WithAlertBuffer(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Register("home-a", cctx, tenantGwOpts...); err != nil {
		t.Fatal(err)
	}
	feed(t, hub, stream)
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if n := alertsDropped(hub); n != 0 {
		t.Errorf("%s = %v with room in the buffer, want 0", metricHubAlertsDropped, n)
	}
	got := make([]gateway.Alert, 0, len(want))
	for len(hub.alerts) > 0 {
		got = append(got, (<-hub.alerts).Alert)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("alert sequence diverged: got %d alerts, want %d", len(got), len(want))
	}
}
