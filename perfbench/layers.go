package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/window"
	"repro/internal/wire"
)

// layerCosts is the single-threaded baseline: every home replayed through
// each layer's public API on its own, one call at a time, so each layer's
// busy time is measured without the hub's scheduling around it.
type layerCosts struct {
	events, windows int

	wireEncode, wireDecode time.Duration
	wireBytes              int

	walAppend, walReplay, walOpen time.Duration
	walRecords                    int

	windowAdd time.Duration

	// Detector time split by what each window did: clean, opened an
	// episode, or ran while an episode was open.
	clean, open, episode    time.Duration
	nClean, nOpen, nEpisode int
	exactHits, scans        float64
	alerts                  int

	gwIngest, gwRecover time.Duration
	gwRecords           int
	ckptWrite           time.Duration
	ckptBytes           int64
	ckpts               int

	// Process CPU spent in each layer's section of the baseline, including
	// the garbage collection its allocations caused: the ledger's rows.
	cpuWire, cpuWindow, cpuCore, cpuGateway, cpuWAL time.Duration
}

// cpuNow is the process's CPU time so far, user plus system.
func cpuNow() time.Duration { return readCPU().cpu }

// baseline measures every home through wire, window and core, and on the
// durable workload through wal and the solo gateway's WAL paths too.
func baseline(in *inputs, ctxs []*core.Context, dir string) (*layerCosts, error) {
	lc := &layerCosts{}
	for i := range in.homes {
		if err := lc.home(in, &in.homes[i], ctxs[in.homes[i].spec], filepath.Join(dir, fmt.Sprintf("base-%d", i))); err != nil {
			return nil, fmt.Errorf("baseline %s: %w", in.homes[i].name, err)
		}
	}
	return lc, nil
}

func (lc *layerCosts) home(in *inputs, hm *home, cctx *core.Context, dir string) error {
	defer os.RemoveAll(dir)
	lc.events += len(hm.events)

	// wire: encode and decode every batch.
	var enc []byte
	scratch := make([]event.Event, 0, in.batchSize)
	c0 := cpuNow()
	for b := range hm.starts {
		t0 := time.Now()
		enc = wire.AppendReport(enc[:0], hm.batch(b))
		t1 := time.Now()
		if _, err := wire.DecodeBatch(enc, scratch[:0]); err != nil {
			return err
		}
		lc.wireDecode += time.Since(t1)
		lc.wireEncode += t1.Sub(t0)
		lc.wireBytes += len(enc)
	}
	lc.cpuWire += cpuNow() - c0

	// window: build every window of the stream.
	wb := window.NewBuilder(cctx.Layout(), windowDur)
	var obs []*window.Observation
	c0 = cpuNow()
	t0 := time.Now()
	for _, e := range hm.events {
		done, err := wb.Add(e)
		if err != nil {
			return err
		}
		obs = append(obs, done...)
	}
	done, err := wb.AdvanceTo(hm.end)
	if err != nil {
		return err
	}
	lc.windowAdd += time.Since(t0)
	lc.cpuWindow += cpuNow() - c0
	obs = append(obs, done...)
	lc.windows += len(obs)

	// core: run the detector over those windows, classifying each call.
	reg := telemetry.NewRegistry()
	det, err := core.New(cctx, core.WithConfig(core.Config{MaxFaults: in.maxFaults}), core.WithTelemetry(reg))
	if err != nil {
		return err
	}
	c0 = cpuNow()
	for _, o := range obs {
		t0 := time.Now()
		res, err := det.Process(o)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		switch {
		case res.Detected:
			lc.open += d
			lc.nOpen++
		case res.Identifying:
			lc.episode += d
			lc.nEpisode++
		default:
			lc.clean += d
			lc.nClean++
		}
		lc.alerts += len(res.Alerts)
	}
	lc.cpuCore += cpuNow() - c0
	m := reg.SnapshotMap()
	lc.exactHits += m["dice_scan_exact_hit_total"]
	lc.scans += m["dice_scan_exact_hit_total"] + m["dice_scan_bucket_scan_total"]

	// gateway: the solo ingest path, with the workload's WAL when durable.
	var wl *wal.Log
	opts := in.gatewayOptions()
	if in.durable {
		if wl, err = wal.Open(filepath.Join(dir, "gw"), wal.Options{Sync: walPolicy}); err != nil {
			return err
		}
		opts = append(opts, gateway.WithWAL(wl))
	}
	gw, err := gateway.New(cctx, opts...)
	if err != nil {
		return err
	}
	c0 = cpuNow()
	t0 = time.Now()
	for b := range hm.starts {
		if err := gw.IngestBatch(hm.batch(b)); err != nil {
			return err
		}
		drain(gw)
	}
	if err := gw.AdvanceTo(hm.end); err != nil {
		return err
	}
	lc.gwIngest += time.Since(t0)
	lc.cpuGateway += cpuNow() - c0
	drain(gw)
	if !in.durable {
		return nil
	}
	want := gw.Stats()
	t0 = time.Now()
	cpPath := filepath.Join(dir, "home.ckpt")
	if err := gateway.WriteCheckpoint(cpPath, gw.ExportCheckpoint()); err != nil {
		return err
	}
	lc.ckptWrite += time.Since(t0)
	lc.ckpts++
	if st, err := os.Stat(cpPath); err == nil {
		lc.ckptBytes += st.Size()
	}
	if err := wl.Close(); err != nil {
		return err
	}

	// gateway recovery: a cold start that replays the whole log. Nothing
	// reads its alerts during the timed replay, so its buffer holds them all.
	if wl, err = wal.Open(filepath.Join(dir, "gw"), wal.Options{Sync: walPolicy}); err != nil {
		return err
	}
	rgw, err := gateway.New(cctx, append(in.gatewayOptions(), gateway.WithWAL(wl), gateway.WithAlertBuffer(len(hm.events)+1))...)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := rgw.RecoverWAL(); err != nil {
		return err
	}
	lc.gwRecover += time.Since(t0)
	lc.gwRecords += int(wl.LastSeq())
	if got := rgw.Stats(); got.Events != want.Events || got.Windows != want.Windows {
		return fmt.Errorf("solo recovery replayed %+v, live run %+v", got, want)
	}
	if err := wl.Close(); err != nil {
		return err
	}

	// wal alone: append the same frames, reopen, replay.
	wdir := filepath.Join(dir, "wal")
	w, err := wal.Open(wdir, wal.Options{Sync: walPolicy})
	if err != nil {
		return err
	}
	var buf []byte
	var frames [][]byte
	c0 = cpuNow()
	for b := range hm.starts {
		batch := hm.batch(b)
		buf, frames = buf[:0], frames[:0]
		if need := len(batch) * wal.RecordSize; cap(buf) < need {
			buf = make([]byte, 0, need)
		}
		for _, e := range batch {
			off := len(buf)
			buf = wal.IngestRecord(e).AppendTo(buf)
			frames = append(frames, buf[off:])
		}
		t0 := time.Now()
		if _, err := w.AppendBatch(frames); err != nil {
			return err
		}
		lc.walAppend += time.Since(t0)
	}
	lc.cpuWAL += cpuNow() - c0
	lc.walRecords += len(hm.events)
	if err := w.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	if w, err = wal.Open(wdir, wal.Options{Sync: walPolicy}); err != nil {
		return err
	}
	lc.walOpen += time.Since(t0)
	defer w.Close()
	t0 = time.Now()
	n := 0
	err = w.Replay(0, func(uint64, []byte) error { n++; return nil })
	lc.walReplay += time.Since(t0)
	if err != nil {
		return err
	}
	if n != len(hm.events) {
		return fmt.Errorf("wal replayed %d records, appended %d", n, len(hm.events))
	}
	return nil
}

// drain empties a solo gateway's alert channel so it never drops.
func drain(gw *gateway.Gateway) {
	for {
		select {
		case <-gw.Alerts():
		default:
			return
		}
	}
}
