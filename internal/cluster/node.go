package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/hub"
	"repro/internal/telemetry"
)

// Cluster metric names, registered on the node's hub registry so they ride
// the same exposition (and the merged cluster /metrics stamps them with a
// node label like everything else).
const (
	metricHandoffs     = "dice_cluster_handoffs_total"
	metricFailovers    = "dice_cluster_failovers_total"
	metricReplacements = "dice_cluster_replacements_total"
	metricRetries      = "dice_cluster_retries_total"
	metricProxied      = "dice_cluster_proxied_total"
	metricHeartbeats   = "dice_cluster_heartbeats_total"
	metricAlivePeers   = "dice_cluster_alive_peers"
	metricSuspectPeers = "dice_cluster_suspect_peers"
)

type nodeMetrics struct {
	handoffs     *telemetry.Counter
	failovers    *telemetry.Counter
	replacements *telemetry.Counter
	retries      *telemetry.Counter
	proxied      *telemetry.Counter
	heartbeats   *telemetry.Counter
	alivePeers   *telemetry.Gauge
	suspectPeers *telemetry.Gauge
}

func newNodeMetrics(reg *telemetry.Registry) nodeMetrics {
	return nodeMetrics{
		handoffs:     reg.Counter(metricHandoffs, "Tenants handed off to a peer by drain-and-ship migration."),
		failovers:    reg.Counter(metricFailovers, "Peer deaths that triggered a re-placement sweep on this node."),
		replacements: reg.Counter(metricReplacements, "Homes this node adopted from durable state (fail-over or lazy placement)."),
		retries:      reg.Counter(metricRetries, "Inter-node call retries (exponential backoff attempts after the first)."),
		proxied:      reg.Counter(metricProxied, "Ingest calls proxied to the owning peer."),
		heartbeats:   reg.Counter(metricHeartbeats, "Heartbeats received from peers."),
		alivePeers:   reg.Gauge(metricAlivePeers, "Peers currently believed alive."),
		suspectPeers: reg.Gauge(metricSuspectPeers, "Peers currently under suspicion (missed heartbeats, not yet declared dead)."),
	}
}

// Resolver maps a home ID to the trained context and gateway options its
// tenant needs — how a node materializes a home it has never hosted, for
// fail-over cold restores and lazy first-contact placement.
type Resolver func(home string) (*core.Context, []gateway.Option, error)

// Option configures a Node.
type Option func(*nodeOptions)

type nodeOptions struct {
	listen       string
	peers        map[string]string
	heartbeat    time.Duration
	suspectAfter time.Duration
	deadAfter    time.Duration
	retries      int
	retryBackoff time.Duration
	callTimeout  time.Duration
	transport    http.RoundTripper
	hubOpts      []hub.Option
	catalog      []string
	resolve      Resolver
}

// WithListen sets the node's HTTP listen address (default "127.0.0.1:0").
func WithListen(addr string) Option { return func(o *nodeOptions) { o.listen = addr } }

// WithPeers sets the static peer table: node ID → host:port. The node's
// own ID must not appear in it.
func WithPeers(peers map[string]string) Option {
	return func(o *nodeOptions) {
		o.peers = make(map[string]string, len(peers))
		for id, addr := range peers {
			o.peers[id] = addr
		}
	}
}

// WithCatalog declares the universe of homes the cluster serves and how to
// materialize each one. The catalog is what lets a survivor re-place a
// dead peer's homes: placement is computed over it, and the resolver
// rebuilds any tenant from its trained context + shared durable state.
func WithCatalog(homes []string, resolve Resolver) Option {
	return func(o *nodeOptions) {
		o.catalog = append([]string(nil), homes...)
		o.resolve = resolve
	}
}

// WithHubOptions passes options through to the node's embedded hub —
// checkpoint dir, WAL dir, shards. Cluster recovery semantics assume every
// node points these at the same shared state tree.
func WithHubOptions(opts ...hub.Option) Option {
	return func(o *nodeOptions) { o.hubOpts = append(o.hubOpts, opts...) }
}

// WithHeartbeat tunes failure detection: peers heartbeat every interval;
// a peer silent for suspectAfter is suspect (still routed to), and one
// silent for deadAfter is declared dead — its homes are re-placed.
// Defaults: 500ms / 2s / 5s.
func WithHeartbeat(interval, suspectAfter, deadAfter time.Duration) Option {
	return func(o *nodeOptions) {
		o.heartbeat = interval
		o.suspectAfter = suspectAfter
		o.deadAfter = deadAfter
	}
}

// WithRetry bounds inter-node call retries: up to retries re-attempts
// after the first try, exponential backoff from base with full jitter,
// capped at 2s. Defaults: 4 retries, 50ms base.
func WithRetry(retries int, base time.Duration) Option {
	return func(o *nodeOptions) {
		o.retries = retries
		o.retryBackoff = base
	}
}

// WithCallTimeout bounds each single inter-node request (default 5s).
func WithCallTimeout(d time.Duration) Option {
	return func(o *nodeOptions) { o.callTimeout = d }
}

// WithTransport injects the HTTP transport for all inter-node calls —
// the hook the chaos drills use to drop, partition, and slow links.
func WithTransport(rt http.RoundTripper) Option {
	return func(o *nodeOptions) { o.transport = rt }
}

// validate rejects timings the loops cannot run with: a non-positive
// heartbeat panics the heartbeat ticker, a non-positive call timeout fails
// every inter-node call at once, and a peer cannot be declared dead before
// it is suspect.
func (o *nodeOptions) validate() error {
	switch {
	case o.heartbeat <= 0:
		return fmt.Errorf("cluster: heartbeat interval %v must be positive", o.heartbeat)
	case o.suspectAfter <= 0:
		return fmt.Errorf("cluster: suspect-after %v must be positive", o.suspectAfter)
	case o.deadAfter < o.suspectAfter:
		return fmt.Errorf("cluster: dead-after %v is shorter than suspect-after %v", o.deadAfter, o.suspectAfter)
	case o.callTimeout <= 0:
		return fmt.Errorf("cluster: call timeout %v must be positive", o.callTimeout)
	case o.retries < 0:
		return fmt.Errorf("cluster: retries %d must not be negative", o.retries)
	}
	return nil
}

// Peer failure-detector states.
const (
	peerAlive int32 = iota
	peerSuspect
	peerDead
)

// peer is one remote node as this node sees it.
type peer struct {
	id       string
	addr     string
	lastSeen atomic.Int64 // unix nanos of last proof of life
	state    atomic.Int32
}

// Node is one member of the hub cluster: an embedded multi-tenant hub plus
// the membership, placement, and handoff machinery that federates it.
type Node struct {
	id    string
	o     nodeOptions
	h     *hub.Hub
	hc    *http.Client
	met   nodeMetrics
	peers map[string]*peer // static table; per-peer state is atomic

	mu        sync.Mutex
	hints     map[string]string // home → node last seen hosting it
	exporting map[string]bool   // homes mid-handoff: evicted here, not yet adopted remotely

	srv    *http.Server
	ln     net.Listener
	stop   chan struct{}
	loops  sync.WaitGroup
	closed atomic.Bool
}

// New builds a node. Start must be called before it serves or gossips.
func New(id string, opts ...Option) (*Node, error) {
	if id == "" {
		return nil, errors.New("cluster: empty node ID")
	}
	o := nodeOptions{
		listen:       "127.0.0.1:0",
		heartbeat:    500 * time.Millisecond,
		suspectAfter: 2 * time.Second,
		deadAfter:    5 * time.Second,
		retries:      4,
		retryBackoff: 50 * time.Millisecond,
		callTimeout:  5 * time.Second,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	if _, ok := o.peers[id]; ok {
		return nil, fmt.Errorf("cluster: node %q lists itself as a peer", id)
	}
	h, err := hub.New(o.hubOpts...)
	if err != nil {
		return nil, err
	}
	n := &Node{
		id:        id,
		o:         o,
		h:         h,
		hc:        &http.Client{Transport: o.transport},
		met:       newNodeMetrics(h.Telemetry()),
		peers:     make(map[string]*peer, len(o.peers)),
		hints:     make(map[string]string),
		exporting: make(map[string]bool),
		stop:      make(chan struct{}),
	}
	for pid, addr := range o.peers {
		n.peers[pid] = &peer{id: pid, addr: addr}
	}
	// Bind in New so Addr is known (and peer tables can be built from it)
	// before any loop starts; Start begins serving and gossiping.
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		h.Close() //nolint:errcheck // construction failed
		return nil, err
	}
	n.ln = ln
	return n, nil
}

// ID returns the node's cluster identity.
func (n *Node) ID() string { return n.id }

// SetPeer adds or replaces one entry in the static peer table. It exists
// for the boot order where addresses are not known until every node has
// bound (New picks the port, SetPeer spreads it): call it between New and
// Start only — the running loops read the table without locks.
func (n *Node) SetPeer(id, addr string) error {
	if id == n.id {
		return fmt.Errorf("cluster: node %q cannot peer with itself", id)
	}
	n.peers[id] = &peer{id: id, addr: addr}
	return nil
}

// Hub exposes the embedded hub — drills and benches read tenant stats and
// alerts through it.
func (n *Node) Hub() *hub.Hub { return n.h }

// Addr returns the bound HTTP address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Closed reports whether the node has been closed or killed.
func (n *Node) Closed() bool { return n.closed.Load() }

// Exported cluster metric names, for callers reading counters via Metric.
const (
	MetricHandoffs     = metricHandoffs
	MetricFailovers    = metricFailovers
	MetricReplacements = metricReplacements
	MetricRetries      = metricRetries
	MetricProxied      = metricProxied
)

// Metric returns the current value of one of this node's cluster counters
// (benches read them in-process instead of scraping /metrics). Unknown
// names return 0.
func (n *Node) Metric(name string) int64 {
	switch name {
	case MetricHandoffs:
		return n.met.handoffs.Value()
	case MetricFailovers:
		return n.met.failovers.Value()
	case MetricReplacements:
		return n.met.replacements.Value()
	case MetricRetries:
		return n.met.retries.Value()
	case MetricProxied:
		return n.met.proxied.Value()
	}
	return 0
}

// Start begins serving on the listener bound at New and starts the
// heartbeat and failure-monitor loops. Peers begin with the benefit of
// the doubt (alive as of now) so a cold cluster boot does not thrash
// placement while the first heartbeats cross.
func (n *Node) Start() error {
	n.srv = &http.Server{Handler: n.handler()}
	now := time.Now().UnixNano()
	for _, p := range n.peers {
		p.lastSeen.Store(now)
	}
	n.met.alivePeers.Set(int64(len(n.peers)))
	go n.srv.Serve(n.ln) //nolint:errcheck // ErrServerClosed after Close
	n.loops.Add(2)
	go n.heartbeatLoop()
	go n.monitorLoop()
	return nil
}

// Close stops the loops and the server, then closes the hub cleanly
// (final checkpoints written).
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(n.stop)
	n.loops.Wait()
	if n.srv != nil {
		n.srv.Close() //nolint:errcheck // shutting down
	} else {
		n.ln.Close() //nolint:errcheck // never served
	}
	return n.h.Close()
}

// Kill is the drill-grade crash: loops and server die, and the hub takes
// its in-process SIGKILL (queued ops lost, no parting checkpoint). The
// node's durable state is whatever was on disk at the moment of death.
func (n *Node) Kill() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	close(n.stop)
	n.loops.Wait()
	if n.srv != nil {
		n.srv.Close() //nolint:errcheck // dying
	} else {
		n.ln.Close() //nolint:errcheck // never served
	}
	n.h.Kill()
}

// aliveNodes is the placement population: this node plus every peer not
// declared dead (suspects still count — suspicion throttles trust, death
// moves state), sorted for deterministic iteration.
func (n *Node) aliveNodes() []string {
	out := []string{n.id}
	for _, p := range n.peers {
		if p.state.Load() != peerDead {
			out = append(out, p.id)
		}
	}
	sort.Strings(out)
	return out
}

// alivePeerList returns non-dead peers, sorted by ID.
func (n *Node) alivePeerList() []*peer {
	out := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		if p.state.Load() != peerDead {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// hintFor returns the cached host for home, if it is still routable.
func (n *Node) hintFor(home string) (string, bool) {
	n.mu.Lock()
	id, ok := n.hints[home]
	n.mu.Unlock()
	if !ok || id == n.id {
		return "", false
	}
	p, ok := n.peers[id]
	if !ok || p.state.Load() == peerDead {
		return "", false
	}
	return id, true
}

// isExporting reports whether home is in the handoff dead zone: exported
// off this node but not yet confirmed adopted. Ingests bounce with a
// retryable conflict instead of racing the adopter into a double-host.
func (n *Node) isExporting(home string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.exporting[home]
}

func (n *Node) setExporting(home string, on bool) {
	n.mu.Lock()
	if on {
		n.exporting[home] = true
	} else {
		delete(n.exporting, home)
	}
	n.mu.Unlock()
}

func (n *Node) setHint(home, nodeID string) {
	n.mu.Lock()
	if nodeID == "" || nodeID == n.id {
		delete(n.hints, home)
	} else {
		n.hints[home] = nodeID
	}
	n.mu.Unlock()
}

// ensureLocal makes home servable on this node if the cluster agrees it
// should be: if any live peer already hosts it (e.g. it was manually
// migrated away from its rendezvous owner), that peer's ID is returned and
// nothing is adopted — single-writer discipline means hosting is the
// source of truth and placement only decides un-hosted homes. Otherwise
// the home is materialized from the catalog and restored from shared
// durable state.
func (n *Node) ensureLocal(ctx context.Context, home string) (hostedBy string, err error) {
	if _, ok := n.h.Tenant(home); ok {
		return "", nil
	}
	for _, p := range n.alivePeerList() {
		// Probes retry transport errors: mistaking a dropped packet for
		// "nobody hosts it" would adopt a home out from under its live
		// host — the one split-brain this design must never manufacture.
		body, err := n.call(ctx, http.MethodGet, "http://"+p.addr+"/cluster/hosted/"+home, nil)
		if err == nil && string(body) == "true" {
			n.setHint(home, p.id)
			return p.id, nil
		}
	}
	if n.o.resolve == nil {
		return "", fmt.Errorf("%w: %q (no catalog resolver)", hub.ErrUnknownHome, home)
	}
	cctx, gwOpts, err := n.o.resolve(home)
	if err != nil {
		return "", err
	}
	tn, err := n.h.Register(home, cctx, gwOpts...)
	if err != nil {
		return "", err
	}
	if err := tn.Restore(); err != nil {
		return "", err
	}
	n.met.replacements.Inc()
	n.setHint(home, "")
	return "", nil
}

// routeTarget picks where an un-forwarded ingest for home should go: this
// node if it hosts the home, the hinted host if one is cached, else the
// rendezvous owner over the nodes currently believed alive.
func (n *Node) routeTarget(home string) string {
	if _, ok := n.h.Tenant(home); ok {
		return n.id
	}
	if id, ok := n.hintFor(home); ok {
		return id
	}
	return Owner(home, n.aliveNodes())
}
