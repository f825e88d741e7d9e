package eval

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/hub"
	"repro/internal/simhome"
	"repro/internal/wire"
)

// ClusterBench configures the federated-hub benchmark: N in-process nodes
// share one durable state tree, M homes stream batches over HTTP through
// one entry node, and mid-replay the bench performs one live migration and
// one node kill. It measures what federation costs (cluster throughput over
// solo-gateway throughput on the same streams) and what recovery buys
// (migration latency, fail-over re-adoption latency) while holding the
// project's core invariant: every home's final counters must equal a solo
// gateway replay bit for bit, straight through the handoff and the crash.
type ClusterBench struct {
	// Nodes is the cluster size (default 3; the last node is killed).
	Nodes int
	// Homes is the number of tenants spread over the cluster (default 6).
	Homes int
	// Hours of stream replayed per home (default 2).
	Hours int
	// Seed drives the simulation (default 21).
	Seed int64
	// BatchSize is readings per DWB1 report batch (default 64).
	BatchSize int
}

func (o ClusterBench) normalize() ClusterBench {
	if o.Nodes < 2 {
		o.Nodes = 3
	}
	if o.Homes <= 0 {
		o.Homes = 6
	}
	if o.Hours <= 0 {
		o.Hours = 2
	}
	if o.Seed == 0 {
		o.Seed = 21
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	return o
}

// ClusterBenchResult is the outcome of one cluster benchmark run.
// EventsPerSec is the cluster replay (HTTP ingest, routing, migration, and
// fail-over included in the wall-clock); SoloEventsPerSec replays the same
// streams through in-process gateways, and Efficiency is their ratio — the
// machine-normalized number the perf gate tracks. BitIdentical reports
// whether every home's final counters matched solo despite the drill.
type ClusterBenchResult struct {
	Nodes             int          `json:"nodes"`
	Homes             int          `json:"homes"`
	Hours             int          `json:"hours_per_home"`
	BatchSize         int          `json:"batch_size"`
	TrainMS           float64      `json:"train_ms"`
	WallClockMS       float64      `json:"wall_clock_ms"`
	SoloWallClockMS   float64      `json:"solo_wall_clock_ms"`
	MigrationMS       float64      `json:"migration_ms"`
	FailoverDetectMS  float64      `json:"failover_detect_ms"`
	FailoverRecoverMS float64      `json:"failover_recover_ms"`
	Events            int64        `json:"events"`
	Alerts            int64        `json:"alerts"`
	EventsPerSec      float64      `json:"events_per_sec"`
	SoloEventsPerSec  float64      `json:"solo_events_per_sec"`
	Efficiency        float64      `json:"efficiency"`
	Handoffs          int64        `json:"handoffs"`
	Failovers         int64        `json:"failovers"`
	Replacements      int64        `json:"replacements"`
	Retries           int64        `json:"retries"`
	BitIdentical      bool         `json:"bit_identical"`
	PerHome           []HomeResult `json:"per_home"`
}

// HomeResult is one tenant's end-of-replay counters.
type HomeResult struct {
	Home  string        `json:"home"`
	Stats gateway.Stats `json:"stats"`
}

var clusterGwOpts = []gateway.Option{
	gateway.WithAlertBuffer(4096),
}

// clusterSolo replays every stream through standalone gateways, one
// goroutine per home (matching the cluster's per-home concurrency), and
// returns the reference counters plus the wall-clock.
func clusterSolo(cctx *core.Context, names []string, streams [][]event.Event, end time.Duration) ([]HomeResult, time.Duration, error) {
	out := make([]HomeResult, len(names))
	errs := make(chan error, len(names))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gw, err := gateway.New(cctx, clusterGwOpts...)
			if err != nil {
				errs <- err
				return
			}
			for _, e := range streams[i] {
				if err := gw.Ingest(e); err != nil {
					errs <- err
					return
				}
			}
			if err := gw.AdvanceTo(end); err != nil {
				errs <- err
				return
			}
			drainAlerts(gw)
			out[i] = HomeResult{Home: names[i], Stats: gw.Stats()}
			errs <- nil
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return out, wall, nil
}

func drainAlerts(gw *gateway.Gateway) {
	for {
		select {
		case <-gw.Alerts():
		default:
			return
		}
	}
}

// RunClusterBench trains one context, boots o.Nodes federated nodes over
// loopback HTTP with a shared state tree, and replays every home's stream
// through the cluster while live-migrating one tenant and killing one node
// mid-stream. The solo replay of the same streams is both the throughput
// yardstick and the bit-identity oracle.
func RunClusterBench(o ClusterBench) (*ClusterBenchResult, error) {
	o = o.normalize()
	spec := simhome.SpecDHouseA()
	spec.Name = "cluster-bench"
	trainH := 3 * 24
	spec.Hours = trainH + o.Homes + o.Hours + 1
	home, err := simhome.New(spec, o.Seed)
	if err != nil {
		return nil, err
	}
	trainStart := time.Now()
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
	trainTime := time.Since(trainStart)

	// Per-home stream slices at staggered offsets; odd homes carry a
	// spurious-actuation fault so the drill produces real alerts.
	end := time.Duration(o.Hours) * time.Hour
	names := make([]string, o.Homes)
	streams := make([][]event.Event, o.Homes)
	bulb, okBulb := home.Registry().Lookup("bulb-kitchen")
	for i := range streams {
		names[i] = fmt.Sprintf("home-%02d", i)
		start := trainW + i*60
		src := home
		if i%2 == 1 && okBulb {
			src = home.WithActuatorFaults(simhome.ActuatorFaults{
				Spurious:   map[device.ID]bool{bulb: true},
				Seed:       int64(100 + i),
				FromMinute: start,
			})
		}
		evts := src.Events(start, start+o.Hours*60)
		streams[i] = make([]event.Event, len(evts))
		for j, e := range evts {
			e.At -= time.Duration(start) * time.Minute
			streams[i][j] = e
		}
	}

	solo, soloWall, err := clusterSolo(cctx, names, streams, end)
	if err != nil {
		return nil, err
	}

	stateDir, err := os.MkdirTemp("", "dice-cluster-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateDir) //nolint:errcheck // best-effort cleanup

	resolver := func(string) (*core.Context, []gateway.Option, error) {
		return cctx, clusterGwOpts, nil
	}
	ids := make([]string, o.Nodes)
	nodes := make([]*cluster.Node, o.Nodes)
	for i := range nodes {
		ids[i] = fmt.Sprintf("n%d", i)
		n, err := cluster.New(ids[i],
			cluster.WithCatalog(names, resolver),
			cluster.WithHubOptions(
				hub.WithShards(2),
				hub.WithCheckpointDir(stateDir),
				hub.WithWALDir(stateDir),
				hub.WithAlertBuffer(8192),
			),
			cluster.WithHeartbeat(100*time.Millisecond, 400*time.Millisecond, 1200*time.Millisecond),
			cluster.WithRetry(6, 25*time.Millisecond),
			cluster.WithCallTimeout(3*time.Second),
		)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			n.Close() //nolint:errcheck // bench teardown
		}
	}()
	for i, n := range nodes {
		for j, pid := range ids {
			if i == j {
				continue
			}
			if err := n.SetPeer(pid, nodes[j].Addr()); err != nil {
				return nil, err
			}
		}
	}
	for _, n := range nodes {
		if err := n.Start(); err != nil {
			return nil, err
		}
	}
	client := &cluster.Client{
		Base:    nodes[0].Addr(),
		HC:      &http.Client{},
		Retries: 10,
		Backoff: 25 * time.Millisecond,
	}

	// hostOf scans live nodes for the unique host of a home.
	hostOf := func(home string) *cluster.Node {
		for _, n := range nodes {
			if n.Closed() {
				continue
			}
			if _, ok := n.Hub().Tenant(home); ok {
				return n
			}
		}
		return nil
	}

	// Senders take the gate read-side per batch so the drill can freeze the
	// cluster between acked batches — the kill never races an in-flight
	// un-acked batch, which is what keeps the replay exactly-once.
	var (
		gate     sync.RWMutex
		sentMu   sync.Mutex
		sentN    int
		wg       sync.WaitGroup
		sendErrs = make(chan error, o.Homes)
	)
	totalBatches := 0
	for i := range streams {
		totalBatches += (len(streams[i]) + o.BatchSize - 1) / o.BatchSize
	}
	replayStart := time.Now()
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			evts := streams[i]
			var buf []byte
			for lo := 0; lo < len(evts); lo += o.BatchSize {
				hi := min(lo+o.BatchSize, len(evts))
				buf = wire.AppendReport(buf[:0], evts[lo:hi])
				gate.RLock()
				err := client.Send(context.Background(), names[i], buf)
				gate.RUnlock()
				if err != nil {
					sendErrs <- fmt.Errorf("send %s: %w", names[i], err)
					return
				}
				sentMu.Lock()
				sentN++
				sentMu.Unlock()
			}
			buf = wire.AppendAdvance(buf[:0], end)
			gate.RLock()
			err := client.Send(context.Background(), names[i], buf)
			gate.RUnlock()
			if err != nil {
				sendErrs <- fmt.Errorf("advance %s: %w", names[i], err)
				return
			}
			sendErrs <- nil
		}(i)
	}
	waitSent := func(target int) error {
		deadline := time.Now().Add(60 * time.Second)
		for {
			sentMu.Lock()
			n := sentN
			sentMu.Unlock()
			if n >= target {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster bench stalled at %d/%d acked batches", n, target)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// One live migration at ~1/3: move a home between the two nodes that
	// will survive the kill. Throughput is measured on this first third —
	// the only window with no injected disturbance; the full wall-clock
	// (stalls included) is reported separately.
	killIdx := o.Nodes - 1
	var migrationTime time.Duration
	if err := waitSent(totalBatches / 3); err != nil {
		return nil, err
	}
	quietTime := time.Since(replayStart)
	quietBatches := totalBatches / 3
	gate.Lock()
	var migSrc *cluster.Node
	victim := ""
	for _, nm := range names {
		if h := hostOf(nm); h != nil && h != nodes[killIdx] {
			migSrc, victim = h, nm
			break
		}
	}
	if victim != "" {
		migDst := ids[0]
		if migSrc.ID() == ids[0] {
			migDst = ids[1]
		}
		mStart := time.Now()
		err := migSrc.Migrate(context.Background(), victim, migDst)
		migrationTime = time.Since(mStart)
		if err != nil {
			gate.Unlock()
			return nil, fmt.Errorf("migrate %s %s→%s: %w", victim, migSrc.ID(), migDst, err)
		}
	}
	gate.Unlock()

	// Kill the last node at ~2/3; time both the re-adoption of its homes
	// (fail-over proper) and the full drain-to-completion.
	if err := waitSent(2 * totalBatches / 3); err != nil {
		return nil, err
	}
	var killedHomes []string
	gate.Lock()
	for _, nm := range names {
		if h := hostOf(nm); h == nodes[killIdx] {
			killedHomes = append(killedHomes, nm)
		}
	}
	nodes[killIdx].Kill()
	killedAt := time.Now()
	gate.Unlock()
	var recoverTime time.Duration
	for {
		adopted := 0
		for _, nm := range killedHomes {
			if h := hostOf(nm); h != nil {
				adopted++
			}
		}
		if adopted == len(killedHomes) {
			recoverTime = time.Since(killedAt)
			break
		}
		if time.Since(killedAt) > 60*time.Second {
			return nil, fmt.Errorf("fail-over stalled: %d/%d homes re-adopted", adopted, len(killedHomes))
		}
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	wall := time.Since(replayStart)
	close(sendErrs)
	for err := range sendErrs {
		if err != nil {
			return nil, err
		}
	}

	res := &ClusterBenchResult{
		Nodes:             o.Nodes,
		Homes:             o.Homes,
		Hours:             o.Hours,
		BatchSize:         o.BatchSize,
		TrainMS:           float64(trainTime.Microseconds()) / 1000,
		WallClockMS:       float64(wall.Microseconds()) / 1000,
		SoloWallClockMS:   float64(soloWall.Microseconds()) / 1000,
		MigrationMS:       float64(migrationTime.Microseconds()) / 1000,
		FailoverDetectMS:  1200, // deadAfter: detection is the silence budget by construction
		FailoverRecoverMS: float64(recoverTime.Microseconds()) / 1000,
		BitIdentical:      true,
	}
	for i, nm := range names {
		host := hostOf(nm)
		if host == nil {
			return nil, fmt.Errorf("home %s hosted nowhere after the drill", nm)
		}
		if err := host.Hub().Drain(nm); err != nil {
			return nil, err
		}
		tn, ok := host.Hub().Tenant(nm)
		if !ok {
			return nil, fmt.Errorf("home %s vanished mid-bench", nm)
		}
		st := tn.Stats()
		res.PerHome = append(res.PerHome, HomeResult{Home: nm, Stats: st})
		res.Events += st.Events
		res.Alerts += st.Alerts
		if st != solo[i].Stats {
			res.BitIdentical = false
		}
	}
	for _, n := range nodes {
		if n.Closed() {
			continue
		}
		res.Handoffs += n.Metric(cluster.MetricHandoffs)
		res.Failovers += n.Metric(cluster.MetricFailovers)
		res.Replacements += n.Metric(cluster.MetricReplacements)
		res.Retries += n.Metric(cluster.MetricRetries)
	}
	// Cluster rate comes from the quiet phase so the fixed fail-over
	// silence budget does not swamp the ratio the perf gate tracks.
	quietEvents := float64(res.Events) * float64(quietBatches) / float64(totalBatches)
	if s := quietTime.Seconds(); s > 0 {
		res.EventsPerSec = quietEvents / s
	}
	if s := soloWall.Seconds(); s > 0 {
		res.SoloEventsPerSec = float64(res.Events) / s
	}
	if res.SoloEventsPerSec > 0 {
		res.Efficiency = res.EventsPerSec / res.SoloEventsPerSec
	}
	return res, nil
}
