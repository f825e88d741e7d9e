package gateway

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/wire"
)

// TestIngestBatchZeroAllocSameWindow guards the pooled hot path: decoding
// a binary batch into pooled scratch and ingesting it into the open window
// must not allocate once the gateway has seen the devices.
func TestIngestBatchZeroAllocSameWindow(t *testing.T) {
	h, ctx := trainedHome(t)
	gw, err := New(ctx, WithConfig(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	// Binary-sensor events carry no per-sample append, so a repeated batch
	// is pure pooled-path work: map hits, builder fold, no growth.
	dev := h.Layout().BinaryID(0)
	batch := make([]event.Event, 64)
	for i := range batch {
		batch[i] = event.Event{At: 30 * time.Second, Device: dev, Value: 1}
	}
	payload := wire.AppendReport(nil, batch)
	scratch := make([]event.Event, 0, len(batch))
	// Warm up: the first batch opens the window.
	if err := gw.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		b, err := wire.DecodeBatch(payload, scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		if err := gw.IngestBatch(b.Events); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("decode+ingest of a clean batch allocates %v times per run, want 0", avg)
	}
}
