// Command dice-gateway runs the multi-tenant home hub: it loads one or
// more homes (each a trained context over a dataset's device universe),
// listens for device reports over CoAP/UDP, routes each report to its
// home's detector on a sharded worker pool, and prints alerts as they are
// raised.
//
// Multi-home usage:
//
//	dice-gateway -homes ./homes -listen 127.0.0.1:5683
//	             [-shards 4] [-checkpoint-dir ./ckpt] [-checkpoint-interval 30s]
//	             [-wal-dir ./wal] [-fsync batch] [-ingest-deadline 0]
//	             [-idle-evict 0] [-liveness 30m] [-http :8080]
//	             [-adapt] [-admit-after 30]
//
// -homes points at a directory with one subdirectory per home; each
// subdirectory is a dataset directory (manifest.json) that also holds the
// home's trained context.json. Devices address their home with the tenant
// path suffix (/report/<home>), e.g. `dice-device -home <home>`.
//
// Single-home usage (the original flags keep working):
//
//	dice-gateway -data ./data/D_houseA -context context.json
//	             [-checkpoint gateway.ckpt]
//
// registers the one home as tenant "default" and serves the bare paths
// (/report) as well, so existing device agents need no changes.
//
// With checkpointing enabled the hub persists each tenant atomically on
// the interval, on eviction, and on shutdown, and lazily restores each
// tenant from its file on the first report after a restart. SIGINT and
// SIGTERM cancel the run context: ingestion stops, pending alerts drain,
// final checkpoints are written.
//
// With -wal-dir set each tenant also appends every accepted report to a
// per-home write-ahead log before applying it, so a hard kill (SIGKILL,
// power loss) at any instant loses nothing: the restarted hub replays the
// WAL tail past the last checkpoint and resumes bit-identical. -fsync
// picks the durability/throughput trade-off; a tenant whose pipeline
// panics is quarantined, dead-lettered, and rebuilt from checkpoint + WAL
// without touching its siblings (see /tenants/{home}/health).
//
// With -adapt each home's context keeps learning online: recurring new
// behaviour the detector did not explain as a fault is admitted after
// -admit-after sightings, stale transitions decay away, and every
// adaptation is published as a new immutable context version the
// detector swaps to atomically. Checkpoints pin the exact version in
// use, so a restart (or restoring an older checkpoint to roll a bad
// adaptation back) lands on precisely the context that was scanning.
// Inspect a home's version at /tenants/{home}/context.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gateway"
	"repro/internal/hub"
	"repro/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dice-gateway:", err)
		os.Exit(1)
	}
}

// homeDef is one home to register: its tenant ID, dataset dir, and
// context file.
type homeDef struct {
	name    string
	dataDir string
	ctxFile string
}

func discoverHomes(homesDir, dataDir, ctxFile string) ([]homeDef, error) {
	if homesDir == "" {
		if dataDir == "" {
			return nil, fmt.Errorf("one of -homes or -data is required")
		}
		return []homeDef{{name: "default", dataDir: dataDir, ctxFile: ctxFile}}, nil
	}
	entries, err := os.ReadDir(homesDir)
	if err != nil {
		return nil, err
	}
	var defs []homeDef
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(homesDir, e.Name())
		if _, err := os.Stat(filepath.Join(dir, dataset.ManifestName)); err != nil {
			continue // not a dataset directory
		}
		defs = append(defs, homeDef{
			name:    e.Name(),
			dataDir: dir,
			ctxFile: filepath.Join(dir, "context.json"),
		})
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("no home directories (with %s) under %s", dataset.ManifestName, homesDir)
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].name < defs[j].name })
	return defs, nil
}

func loadContext(def homeDef) (*core.Context, int, error) {
	ds, err := dataset.LoadManifest(def.dataDir)
	if err != nil {
		return nil, 0, err
	}
	cf, err := os.Open(def.ctxFile)
	if err != nil {
		return nil, 0, err
	}
	defer cf.Close()
	cctx, err := core.LoadContext(cf, ds.Layout)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", def.ctxFile, err)
	}
	return cctx, ds.Registry.Len(), nil
}

func run() error {
	homesDir := flag.String("homes", "", "directory with one dataset+context subdirectory per home")
	dataDir := flag.String("data", "", "single-home dataset directory (legacy mode)")
	ctxFile := flag.String("context", "context.json", "trained context file (single-home mode)")
	listen := flag.String("listen", "127.0.0.1:5683", "UDP address to serve CoAP on")
	shards := flag.Int("shards", 4, "hub worker pool size; any count produces identical detection output")
	ckptDir := flag.String("checkpoint-dir", "", "directory for per-home checkpoint files (<home>.ckpt)")
	ckptPath := flag.String("checkpoint", "", "single checkpoint file (legacy single-home mode)")
	ckptEvery := flag.Duration("checkpoint-interval", 30*time.Second, "how often to persist checkpoints")
	idleEvict := flag.Duration("idle-evict", 0, "evict homes with no reports for this long (0 disables)")
	liveness := flag.Duration("liveness", 0, "silence threshold for fail-stop device alerts (0 disables)")
	httpAddr := flag.String("http", "", "TCP address for the observability endpoint (/metrics, /tenants, /debug/pprof); empty disables")
	walDir := flag.String("wal-dir", "", "directory for per-home write-ahead logs (<home>/*.wal); empty disables the WAL")
	fsync := flag.String("fsync", "batch", "WAL fsync policy: always (no acknowledged loss), batch (bounded loss, amortized flushes), never (OS page cache)")
	ingestDeadline := flag.Duration("ingest-deadline", 0, "max wait on a full shard queue before shedding; 0 keeps pure backpressure")
	adapt := flag.Bool("adapt", false, "adapt each home's context online: admit recurring new behaviour, decay stale transitions, publish versioned snapshots (see /tenants/{home}/context)")
	admitAfter := flag.Int("admit-after", 0, "sightings before -adapt admits a new behaviour (0 = library default)")
	flag.Parse()

	defs, err := discoverHomes(*homesDir, *dataDir, *ctxFile)
	if err != nil {
		return err
	}

	hubOpts := []hub.Option{hub.WithShards(*shards)}
	switch {
	case *ckptDir != "":
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		hubOpts = append(hubOpts, hub.WithCheckpointDir(*ckptDir))
	case *ckptPath != "":
		// Legacy flag: the one tenant maps onto the one file.
		path := *ckptPath
		hubOpts = append(hubOpts, hub.WithCheckpointPaths(func(string) string { return path }))
	}
	if *ckptDir != "" || *ckptPath != "" {
		hubOpts = append(hubOpts, hub.WithCheckpointInterval(*ckptEvery))
	}
	if *idleEvict > 0 {
		hubOpts = append(hubOpts, hub.WithIdleEviction(*idleEvict))
	}
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			return err
		}
		hubOpts = append(hubOpts, hub.WithWALDir(*walDir), hub.WithWALSync(policy))
	}
	if *ingestDeadline > 0 {
		hubOpts = append(hubOpts, hub.WithIngestDeadline(*ingestDeadline))
	}
	h, err := hub.New(hubOpts...)
	if err != nil {
		return err
	}
	defer h.Close()

	gwOpts := []gateway.Option{
		gateway.WithLiveness(*liveness),
	}
	if *adapt {
		var aOpts []core.AdapterOption
		if *admitAfter > 0 {
			aOpts = append(aOpts, core.WithAdmitAfter(*admitAfter))
		}
		gwOpts = append(gwOpts, gateway.WithAdaptation(aOpts...))
	}
	for _, def := range defs {
		cctx, devices, err := loadContext(def)
		if err != nil {
			return fmt.Errorf("home %s: %w", def.name, err)
		}
		if _, err := h.Register(def.name, cctx, gwOpts...); err != nil {
			return err
		}
		fmt.Printf("home %-16s %3d devices, %d groups\n", def.name, devices, cctx.NumGroups())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var frontOpts []hub.FrontOption
	if *homesDir == "" {
		frontOpts = append(frontOpts, hub.WithDefaultHome("default"))
	}
	front, err := hub.ServeCoAP(h, *listen, frontOpts...)
	if err != nil {
		return err
	}
	defer front.Close()

	if *httpAddr != "" {
		obs, err := hub.ServeHTTP(h, *httpAddr)
		if err != nil {
			return err
		}
		defer obs.Close()
		fmt.Printf("observability on http://%s/metrics\n", obs.Addr())
	}

	fmt.Printf("hub listening on coap://%s (%d homes, %d shards)\n",
		front.Addr(), len(defs), h.Shards())

	// Run owns alert delivery, periodic checkpoints, and idle eviction;
	// SIGINT/SIGTERM cancel the context, Run drains and writes final
	// checkpoints, and the deferred Close persists anything that trickled
	// in after the front stopped.
	if err := h.Run(ctx, printAlert); err != nil {
		return err
	}
	front.Close()
	fmt.Println("shutting down:")
	for _, home := range h.Homes() {
		if tn, ok := h.Tenant(home); ok {
			st := tn.Stats()
			fmt.Printf("  %-16s %d events, %d windows, %d violations, %d alerts (%d liveness), %d dark\n",
				home, st.Events, st.Windows, st.Violations, st.Alerts, st.LivenessAlerts, st.DarkDevices)
		}
	}
	return h.Close()
}

func printAlert(a hub.TenantAlert) {
	names := make([]string, 0, len(a.Devices))
	for _, d := range a.Devices {
		names = append(names, d.Name)
	}
	fmt.Printf("ALERT home=%s faulty=%s cause=%s detected@%s reported@%s\n",
		a.Home, strings.Join(names, ","), a.Cause, a.DetectedAt, a.ReportedAt)
}
