// Command dice-hubd runs one node of a federated hub cluster. N nodes with
// identical -peers tables place homes by rendezvous hashing — no
// coordinator, no election — and serve device batches over HTTP
// (POST /cluster/ingest/<home>, DWB1 payloads). A report landing on the
// wrong node is proxied to the owner; a node death is detected by
// heartbeat and the dead node's homes are re-adopted by survivors from the
// shared checkpoint + WAL tree, bit-identical to an uninterrupted run.
//
// Usage (three nodes on one host sharing a state tree):
//
//	dice-hubd -node-id a -listen 127.0.0.1:7001 \
//	          -peers b=127.0.0.1:7002,c=127.0.0.1:7003 \
//	          -homes ./homes -checkpoint-dir ./state -wal-dir ./state
//	dice-hubd -node-id b -listen 127.0.0.1:7002 \
//	          -peers a=127.0.0.1:7001,c=127.0.0.1:7003 ...
//	dice-hubd -node-id c ...
//
// -homes points at a directory with one dataset+context subdirectory per
// home, exactly as for dice-gateway; every node loads the same catalog but
// only instantiates the homes it owns (or adopts). The node's /metrics
// merges every live peer's exposition with a node="<id>" label, and
// /cluster/tenants lists every tenant in the cluster with its host.
//
// For the fail-over guarantee the checkpoint and WAL directories must be
// on storage every node can reach (one machine, or a shared mount).
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

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gateway"
	"repro/internal/hub"
	"repro/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dice-hubd:", err)
		os.Exit(1)
	}
}

// homeDef is one catalog entry: its tenant ID, dataset dir, and context
// file (same on-disk layout dice-gateway's -homes uses).
type homeDef struct {
	name    string
	dataDir string
	ctxFile string
}

func discoverHomes(homesDir string) ([]homeDef, error) {
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

func loadContext(def homeDef) (*core.Context, error) {
	ds, err := dataset.LoadManifest(def.dataDir)
	if err != nil {
		return nil, err
	}
	cf, err := os.Open(def.ctxFile)
	if err != nil {
		return nil, err
	}
	defer cf.Close()
	cctx, err := core.LoadContext(cf, ds.Layout)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.ctxFile, err)
	}
	return cctx, nil
}

func parsePeers(spec string) (map[string]string, error) {
	peers := make(map[string]string)
	if spec == "" {
		return peers, nil
	}
	for _, part := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -peers entry %q, want id=host:port", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate peer id %q", id)
		}
		peers[id] = addr
	}
	return peers, nil
}

func run() error {
	nodeID := flag.String("node-id", "", "this node's cluster ID (required, unique across -peers)")
	listen := flag.String("listen", "127.0.0.1:7001", "TCP address for the cluster HTTP endpoint")
	peersSpec := flag.String("peers", "", "static peer table, id=host:port[,id=host:port...]")
	homesDir := flag.String("homes", "", "directory with one dataset+context subdirectory per home (required)")
	shards := flag.Int("shards", 4, "hub worker pool size; any count produces identical detection output")
	ckptDir := flag.String("checkpoint-dir", "", "shared directory for per-home checkpoint files")
	ckptEvery := flag.Duration("checkpoint-interval", 30*time.Second, "how often to persist checkpoints")
	walDir := flag.String("wal-dir", "", "shared directory for per-home write-ahead logs")
	fsync := flag.String("fsync", "batch", "WAL fsync policy: always, batch, never")
	liveness := flag.Duration("liveness", 0, "silence threshold for fail-stop device alerts (0 disables)")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "peer heartbeat interval")
	suspectAfter := flag.Duration("suspect-after", 2*time.Second, "heartbeat silence before a peer is suspected")
	deadAfter := flag.Duration("dead-after", 5*time.Second, "heartbeat silence before a peer is declared dead and failed over")
	retries := flag.Int("retries", 4, "inter-node call retries (exponential backoff + jitter)")
	backoff := flag.Duration("retry-backoff", 50*time.Millisecond, "base delay before the first inter-node retry")
	callTimeout := flag.Duration("call-timeout", 5*time.Second, "per-attempt timeout on inter-node calls")
	adapt := flag.Bool("adapt", false, "adapt each hosted home's context online (versioned snapshots, checkpoint-pinned; see /tenants/{home}/context)")
	admitAfter := flag.Int("admit-after", 0, "sightings before -adapt admits a new behaviour (0 = library default)")
	flag.Parse()

	if *nodeID == "" {
		return fmt.Errorf("-node-id is required")
	}
	if *homesDir == "" {
		return fmt.Errorf("-homes is required")
	}
	peers, err := parsePeers(*peersSpec)
	if err != nil {
		return err
	}

	defs, err := discoverHomes(*homesDir)
	if err != nil {
		return err
	}
	catalog := make([]string, 0, len(defs))
	byName := make(map[string]homeDef, len(defs))
	for _, def := range defs {
		catalog = append(catalog, def.name)
		byName[def.name] = def
	}
	// Contexts load lazily: a node only pays for the homes it actually
	// hosts, so adding nodes shrinks per-node startup work.
	resolver := func(home string) (*core.Context, []gateway.Option, error) {
		def, ok := byName[home]
		if !ok {
			return nil, nil, fmt.Errorf("home %q not in catalog", home)
		}
		cctx, err := loadContext(def)
		if err != nil {
			return nil, nil, err
		}
		opts := []gateway.Option{
			gateway.WithLiveness(*liveness),
		}
		if *adapt {
			var aOpts []core.AdapterOption
			if *admitAfter > 0 {
				aOpts = append(aOpts, core.WithAdmitAfter(*admitAfter))
			}
			opts = append(opts, gateway.WithAdaptation(aOpts...))
		}
		return cctx, opts, nil
	}

	hubOpts := []hub.Option{hub.WithShards(*shards)}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		hubOpts = append(hubOpts,
			hub.WithCheckpointDir(*ckptDir),
			hub.WithCheckpointInterval(*ckptEvery))
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

	n, err := cluster.New(*nodeID,
		cluster.WithListen(*listen),
		cluster.WithPeers(peers),
		cluster.WithCatalog(catalog, resolver),
		cluster.WithHubOptions(hubOpts...),
		cluster.WithHeartbeat(*heartbeat, *suspectAfter, *deadAfter),
		cluster.WithRetry(*retries, *backoff),
		cluster.WithCallTimeout(*callTimeout),
	)
	if err != nil {
		return err
	}
	defer n.Close()

	if err := n.Start(); err != nil {
		return err
	}
	owned := cluster.Placement(catalog, sortedKeys(peers, *nodeID))[*nodeID]
	fmt.Printf("node %s on http://%s: %d peers, %d homes in catalog, %d placed here\n",
		*nodeID, n.Addr(), len(peers), len(catalog), len(owned))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Run owns alert delivery and periodic checkpoints for the local hub;
	// SIGINT/SIGTERM drain and write final checkpoints before Close.
	if err := n.Hub().Run(ctx, printAlert); err != nil {
		return err
	}
	fmt.Println("shutting down:")
	for _, home := range n.Hub().Homes() {
		if tn, ok := n.Hub().Tenant(home); ok {
			st := tn.Stats()
			fmt.Printf("  %-16s %d events, %d windows, %d violations, %d alerts\n",
				home, st.Events, st.Windows, st.Violations, st.Alerts)
		}
	}
	return n.Close()
}

func sortedKeys(peers map[string]string, self string) []string {
	out := []string{self}
	for id := range peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func printAlert(a hub.TenantAlert) {
	names := make([]string, 0, len(a.Devices))
	for _, d := range a.Devices {
		names = append(names, d.Name)
	}
	fmt.Printf("ALERT home=%s faulty=%s cause=%s detected@%s reported@%s\n",
		a.Home, strings.Join(names, ","), a.Cause, a.DetectedAt, a.ReportedAt)
}
