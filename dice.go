// Package dice is the public face of this repository: a from-scratch Go
// implementation of DICE ("Detecting and Identifying Faulty IoT Devices in
// Smart Home with Context Extraction", DSN 2018).
//
// DICE watches a smart home's sensor and actuator stream and raises an
// alert naming the probable faulty device. It works in two phases:
//
//   - Precomputation: a fault-free recording is windowed into one-minute
//     sensor state sets; every unique state set becomes a *group*, and
//     three Markov transition matrices (group→group, group→actuator,
//     actuator→group) capture the home's temporal context.
//   - Real time: each live window passes a correlation check (does the
//     state set match a known group?) and a transition check (is this
//     transition possible?); on a violation, an identification loop
//     intersects per-window suspect sets until at most numThre devices
//     remain.
//
// Quick start:
//
//	reg := dice.NewRegistry()
//	motion := reg.MustAdd("motion-kitchen", dice.Binary, dice.Motion, "kitchen")
//	...
//	layout := dice.NewLayout(reg)
//
//	trainer := dice.NewTrainer(layout, time.Minute)
//	// pass 1 over fault-free history:
//	for _, w := range history { trainer.Calibrate(w) }
//	trainer.FinishCalibration()
//	// pass 2:
//	for _, w := range history { trainer.Learn(w) }
//	ctx, _ := trainer.Context()
//
//	det, _ := dice.New(ctx)
//	for _, w := range live {
//	    res, _ := det.Process(w)
//	    if res.Alert != nil { fmt.Println("faulty:", res.Alert.Devices) }
//	}
//
// The subpackages under internal/ hold the substrates: the smart-home
// simulator used for evaluation (internal/simhome), fault injection
// (internal/faults), the evaluation protocol for every table and figure of
// the paper (internal/eval), prior-art baselines (internal/baseline), and
// a CoAP gateway runtime (internal/coap, internal/gateway), served to
// devices through the hub's CoAP front (internal/hub).
package dice

import (
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/hub"
	"repro/internal/telemetry"
	"repro/internal/wal"
	"repro/internal/window"
	"repro/internal/wire"
)

// Re-exported device model.
type (
	// Registry holds the home's devices with stable IDs.
	Registry = device.Registry
	// Device describes one registered device.
	Device = device.Device
	// DeviceID identifies a device within a registry.
	DeviceID = device.ID
	// Kind classifies a device (Binary, Numeric, Actuator).
	Kind = device.Kind
	// DeviceType is the physical modality (Motion, Light, ...).
	DeviceType = device.Type
	// Layout maps devices to state-set slots.
	Layout = window.Layout
	// Observation is one fixed-duration window of readings.
	Observation = window.Observation
	// Builder folds an event stream into observations. The slice its Add
	// and AdvanceTo return is reused by the next call to either.
	Builder = window.Builder
)

// Device kinds.
const (
	Binary   = device.Binary
	Numeric  = device.Numeric
	Actuator = device.Actuator
)

// Common device types (the full set lives in internal/device).
const (
	Motion      = device.Motion
	DoorContact = device.DoorContact
	PressureMat = device.PressureMat
	Light       = device.Light
	Temperature = device.Temperature
	Humidity    = device.Humidity
	Sound       = device.Sound
	SmartBulb   = device.SmartBulb
	SmartSwitch = device.SmartSwitch
)

// Re-exported algorithm types.
type (
	// Config tunes the detector; the zero value uses the paper's settings.
	Config = core.Config
	// Context is the precomputed correlation + transition context.
	Context = core.Context
	// Trainer runs the precomputation phase.
	Trainer = core.Trainer
	// Detector runs the real-time phase.
	Detector = core.Detector
	// Result is the per-window detector output.
	Result = core.Result
	// Alert names the probable faulty devices.
	Alert = core.Alert
	// CheckKind names which check flagged a window.
	CheckKind = core.CheckKind
	// Cause is the canonical name for CheckKind in new code.
	Cause = core.Cause
	// Explain is the decision trace attached to each alert.
	Explain = core.Explain
	// ExplainStep is one informative window within an Explain trace.
	ExplainStep = core.ExplainStep
	// Option configures a Detector at construction (see New).
	Option = core.Option
	// Check is one pluggable stage of the detector's violation pipeline;
	// DefaultChecks returns the built-in sequence and WithChecks replaces it.
	Check = core.Check
	// CheckInput is the per-window evidence a Check inspects.
	CheckInput = core.CheckInput
	// Finding is a Check's verdict: the cause, the suspects, and (for the
	// timing check) the interval evidence.
	Finding = core.Finding
	// TimingEvidence explains a cause=timing flag: the observed gap, the
	// learned band, and the edge's histogram.
	TimingEvidence = core.TimingEvidence
	// ContextBuilder is the sole mutation path for contexts: it accumulates
	// groups and transitions, then Build seals an immutable Context version.
	ContextBuilder = core.ContextBuilder
	// Adapter evolves a context online from confirmed-non-faulty windows,
	// publishing each adaptation as a new immutable Context version.
	Adapter = core.Adapter
	// AdapterOption configures an Adapter (WithAdmitAfter, WithDecay, ...).
	AdapterOption = core.AdapterOption
	// AdapterState is the adapter's checkpointable candidate ledger.
	AdapterState = core.AdapterState
	// Telemetry is the zero-dependency metrics registry detectors and
	// gateways report into; its WriteText emits Prometheus text format.
	Telemetry = telemetry.Registry
)

// Violation causes. CheckTiming flags a structurally valid transition whose
// inter-window gap falls outside the interval band learned during training
// (Cause.Family() == FamilyTiming). CheckGhost flags actuations reported
// under a device ID the trained layout never issued — a spoofed node.
const (
	CheckNone        = core.CheckNone
	CheckCorrelation = core.CheckCorrelation
	CheckG2G         = core.CheckG2G
	CheckG2A         = core.CheckG2A
	CheckA2G         = core.CheckA2G
	CheckLiveness    = core.CheckLiveness
	CheckTiming      = core.CheckTiming
	CheckGhost       = core.CheckGhost
)

// Cause families, as returned by Cause.Family().
const (
	FamilyCorrelation = core.FamilyCorrelation
	FamilyTransition  = core.FamilyTransition
	FamilyLiveness    = core.FamilyLiveness
	FamilyTiming      = core.FamilyTiming
	FamilyGhost       = core.FamilyGhost
)

// Context payload schema versions: v1 files predate interval sketches and
// load as timing-incapable; v2 carries them (Context.TimingCapable).
const (
	ContextSchemaV1 = core.ContextSchemaV1
	ContextSchemaV2 = core.ContextSchemaV2
)

// DefaultChecks returns the built-in check pipeline in evaluation order:
// ghost, correlation, G2G, G2A, A2G, timing. Pass a reordered or filtered
// slice to WithChecks to reshape the pipeline.
func DefaultChecks() []Check { return core.DefaultChecks() }

// DefaultDuration is the paper's empirically optimal window length.
const DefaultDuration = core.DefaultDuration

// NewRegistry returns an empty device registry.
func NewRegistry() *Registry { return device.NewRegistry() }

// NewLayout derives the state-set layout from a registry.
func NewLayout(reg *Registry) *Layout { return window.NewLayout(reg) }

// NewBuilder returns a window builder with the given duration.
func NewBuilder(layout *Layout, duration time.Duration) *Builder {
	return window.NewBuilder(layout, duration)
}

// NewTrainer starts a precomputation phase.
func NewTrainer(layout *Layout, duration time.Duration) *Trainer {
	return core.NewTrainer(layout, duration)
}

// TrainWindows runs both precomputation passes over a window slice.
func TrainWindows(layout *Layout, duration time.Duration, obs []*Observation) (*Context, error) {
	return core.TrainWindows(layout, duration, obs)
}

// New builds a real-time detector over a trained context with functional
// options (WithConfig, WithTelemetry, WithMaxFaults, ...).
func New(ctx *Context, opts ...Option) (*Detector, error) {
	return core.New(ctx, opts...)
}

// NewTelemetry returns an empty metrics registry to pass to WithTelemetry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// Detector options, re-exported from internal/core. WithChecks replaces the
// check pipeline; WithTiming, WithTimingBand, WithTimingQuantiles, and
// WithTimingFlagFast tune the timing check (it runs only against contexts
// whose payload carries interval sketches — Context.TimingCapable).
var (
	WithConfig            = core.WithConfig
	WithDuration          = core.WithDuration
	WithMaxFaults         = core.WithMaxFaults
	WithCandidateDistance = core.WithCandidateDistance
	WithWeights           = core.WithWeights
	WithAttest            = core.WithAttest
	WithTelemetry         = core.WithTelemetry
	WithChecks            = core.WithChecks
	WithTiming            = core.WithTiming
	WithTimingBand        = core.WithTimingBand
	WithTimingQuantiles   = core.WithTimingQuantiles
	WithTimingFlagFast    = core.WithTimingFlagFast
)

// LoadContext reads a context saved with Context.Save and binds it to the
// layout. Only the checksummed DICECKS1 envelope loads; integrity failures
// surface as ErrCorruptContext, and a plain-JSON file from before the
// envelope fails with another error (retrain to replace it).
func LoadContext(r io.Reader, layout *Layout) (*Context, error) {
	return core.LoadContext(r, layout)
}

// ErrCorruptContext marks a saved context that failed its checksum or
// fingerprint verification.
var ErrCorruptContext = core.ErrCorruptContext

// NewContextBuilder starts an empty epoch-0 context (Trainer does this for
// you; use Context.Derive to adapt an existing version).
func NewContextBuilder(layout *Layout, duration time.Duration, valueThre []float64) (*ContextBuilder, error) {
	return core.NewContextBuilder(layout, duration, valueThre)
}

// NewAdapter returns an online context adapter over a trained context.
func NewAdapter(base *Context, opts ...AdapterOption) (*Adapter, error) {
	return core.NewAdapter(base, opts...)
}

// Adapter options, re-exported from internal/core.
var (
	WithAdmitAfter       = core.WithAdmitAfter
	WithDecay            = core.WithDecay
	WithMaxPending       = core.WithMaxPending
	WithAdapterTelemetry = core.WithAdapterTelemetry
)

// Re-exported multi-tenant hub. A Hub runs many homes behind one process:
// each registered home owns a private detector pipeline, events are routed
// to it on a sharded worker pool (per-home order preserved), and detection
// output is bit-identical to running the home on its own gateway. See
// internal/hub for the full API (CoAP front end, HTTP observability).
type (
	// Hub multiplexes per-home detectors behind one ingress.
	Hub = hub.Hub
	// Tenant is the handle to one registered home.
	Tenant = hub.Tenant
	// TenantAlert is a gateway alert tagged with its home.
	TenantAlert = hub.TenantAlert
	// HubOption configures a Hub at construction.
	HubOption = hub.Option
	// Event is one raw timestamped device reading, the unit of hub
	// ingestion (Hub.Ingest / Hub.TryIngest).
	Event = event.Event
	// GatewayOption configures one tenant's gateway at registration.
	GatewayOption = gateway.Option
	// GatewayStats is a snapshot of one tenant's pipeline counters.
	GatewayStats = gateway.Stats
	// ContextInfo describes a tenant's active context version (epoch,
	// fingerprint, lineage) and its online-adaptation progress; served on
	// GET /tenants/{home}/context.
	ContextInfo = gateway.ContextInfo
)

// NewHub builds an empty hub; homes arrive via Register.
func NewHub(opts ...HubOption) (*Hub, error) { return hub.New(opts...) }

// Hub options, re-exported from internal/hub. The names carry a Hub/Shard
// prefix where the bare core/gateway option name is already taken.
var (
	WithShards             = hub.WithShards
	WithShardQueueDepth    = hub.WithQueueDepth
	WithHubAlertBuffer     = hub.WithAlertBuffer
	WithCheckpointDir      = hub.WithCheckpointDir
	WithCheckpointPaths    = hub.WithCheckpointPaths
	WithCheckpointInterval = hub.WithCheckpointInterval
	WithIdleEviction       = hub.WithIdleEviction
	WithHubTelemetry       = hub.WithTelemetry
	WithWALDir             = hub.WithWALDir
	WithWALSync            = hub.WithWALSync
	WithSupervision        = hub.WithSupervision
	WithRestartBackoff     = hub.WithRestartBackoff
	WithIngestDeadline     = hub.WithIngestDeadline
)

// Self-healing hub surface: a tenant whose pipeline panics is quarantined,
// its poison op dead-lettered, and the tenant rebuilt from checkpoint +
// write-ahead log while its siblings keep running. Health reports where a
// home sits in that state machine (also served on GET
// /tenants/{home}/health); the WAL fsync policies price durability against
// ingest throughput.
type (
	// TenantHealth is one home's supervision state.
	TenantHealth = hub.Health
	// WALSyncPolicy controls when WAL appends reach stable storage.
	WALSyncPolicy = wal.SyncPolicy
)

// Supervision states and WAL fsync policies, re-exported.
const (
	TenantHealthy     = hub.HealthHealthy
	TenantDegraded    = hub.HealthDegraded
	TenantMigrating   = hub.HealthMigrating
	TenantQuarantined = hub.HealthQuarantined
	TenantEvicted     = hub.HealthEvicted

	WALSyncAlways = wal.SyncAlways
	WALSyncBatch  = wal.SyncBatch
	WALSyncNever  = wal.SyncNever
)

// Hub overload errors: ErrShed is TryIngest's full-queue rejection,
// ErrDeadline is blocking Ingest giving up after the configured deadline,
// ErrTenantMigrating is an ingest bouncing off a home mid-handoff (retry
// after the adoption lands).
var (
	ErrShed            = hub.ErrShed
	ErrDeadline        = hub.ErrDeadline
	ErrTenantMigrating = hub.ErrMigrating
)

// ParseWALSyncPolicy maps the -fsync flag values (always|batch|never) onto
// policies.
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// Tenant gateway options, re-exported from internal/gateway for use with
// Hub.Register. WithGatewayAdaptation turns on online context adaptation
// for the tenant: the detector's context evolves behind the versioned,
// immutable Context API (admission after sustained observation, exponential
// decay), every tenant keeps its own independent epoch sequence, and
// checkpoints pin the exact version so a bad adaptation rolls back through
// the normal restore path.
var (
	WithGatewayConfig     = gateway.WithConfig
	WithGatewayLiveness   = gateway.WithLiveness
	WithGatewayAlertBuf   = gateway.WithAlertBuffer
	WithGatewayAdaptation = gateway.WithAdaptation
)

// Re-exported federated hub cluster (internal/cluster). N nodes place
// homes by rendezvous hashing over a static peer table — no coordinator —
// and share one durable state tree: a tenant moves between nodes by
// drain-and-handoff (ExportTenant → checksummed envelope → Adopt, verified
// bit-identical), and a node death is detected by heartbeat and its homes
// cold-restored on survivors. Every inter-node call retries with
// exponential backoff + jitter.
type (
	// ClusterNode is one member of a federated hub cluster.
	ClusterNode = cluster.Node
	// ClusterClient streams DWB1 batches into any node, following moves.
	ClusterClient = cluster.Client
	// ClusterOption configures a ClusterNode at construction.
	ClusterOption = cluster.Option
	// ClusterResolver materializes a home's trained context on demand.
	ClusterResolver = cluster.Resolver
	// ExportedTenant is the drain-and-handoff envelope (checkpoint + WAL
	// tail + expected counters).
	ExportedTenant = hub.ExportedTenant
)

// NewClusterNode builds one cluster node; Start serves and gossips.
func NewClusterNode(id string, opts ...ClusterOption) (*ClusterNode, error) {
	return cluster.New(id, opts...)
}

// ClusterOwner is the rendezvous placement function: which node of nodes
// owns home. Deterministic and order-independent.
func ClusterOwner(home string, nodes []string) string { return cluster.Owner(home, nodes) }

// Cluster node options, re-exported from internal/cluster.
var (
	WithClusterListen      = cluster.WithListen
	WithClusterPeers       = cluster.WithPeers
	WithClusterCatalog     = cluster.WithCatalog
	WithClusterHubOptions  = cluster.WithHubOptions
	WithClusterHeartbeat   = cluster.WithHeartbeat
	WithClusterRetry       = cluster.WithRetry
	WithClusterCallTimeout = cluster.WithCallTimeout
	WithClusterTransport   = cluster.WithTransport
)

// Binary batch wire format (internal/wire): the length-prefixed,
// CRC-framed encoding devices use to report batches of readings. The hub's
// CoAP front negotiates it by payload sniffing, so JSON and binary devices
// coexist on the same resource paths; the binary path
// decodes into pooled scratch and ingests a whole batch under one lock
// with one WAL append.
type (
	// WireBatch is one decoded binary payload (report or advance).
	WireBatch = wire.Batch
	// WireKind discriminates report vs advance batches.
	WireKind = wire.Kind
	// AgentWireFormat selects a device agent's wire encoding.
	AgentWireFormat = gateway.WireFormat
)

// Wire kinds and agent encodings, re-exported.
const (
	WireKindReport  = wire.KindReport
	WireKindAdvance = wire.KindAdvance

	AgentWireBinary = gateway.WireBinary
	AgentWireJSON   = gateway.WireJSON
)

// Binary batch codec, re-exported from internal/wire. AppendWireReport and
// AppendWireAdvance encode onto a reusable buffer; DecodeWireBatch decodes
// into reusable scratch and fails with ErrMalformedWire on anything that
// does not verify byte for byte.
var (
	AppendWireReport  = wire.AppendReport
	AppendWireAdvance = wire.AppendAdvance
	DecodeWireBatch   = wire.DecodeBatch
	IsBinaryWire      = wire.IsBinary
	ErrMalformedWire  = wire.ErrMalformed
)
