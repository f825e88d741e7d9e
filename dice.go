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
//	ctx, _ := dice.TrainWindows(layout, time.Minute, history)
//	det, _ := dice.New(ctx)
//	for _, w := range live {
//	    res, _ := det.Process(w)
//	    if res.Alert != nil { fmt.Println("faulty:", res.Alert.Devices) }
//	}
//
// This package re-exports only what its examples and tests use: the device
// model, training, the detector, and the multi-tenant hub. Everything else
// lives under internal/: the smart-home simulator used for evaluation
// (internal/simhome), fault injection (internal/faults), the evaluation
// protocol for every table and figure of the paper (internal/eval),
// prior-art baselines (internal/baseline), the CoAP gateway runtime
// (internal/coap, internal/gateway) served to devices through the hub's
// CoAP front (internal/hub), and the federated cluster (internal/cluster).
package dice

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/hub"
	"repro/internal/window"
)

// Re-exported device model.
type (
	// Registry holds the home's devices with stable IDs.
	Registry = device.Registry
	// DeviceID identifies a device within a registry.
	DeviceID = device.ID
	// Layout maps devices to state-set slots.
	Layout = window.Layout
	// Observation is one fixed-duration window of readings.
	Observation = window.Observation
)

// Device kinds.
const (
	Binary   = device.Binary
	Numeric  = device.Numeric
	Actuator = device.Actuator
)

// Device types (the full set lives in internal/device).
const (
	Motion      = device.Motion
	Temperature = device.Temperature
	Sound       = device.Sound
	SmartBulb   = device.SmartBulb
)

// Re-exported algorithm types.
type (
	// Config tunes the detector; the zero value uses the paper's settings.
	// It is the only way to tune one.
	Config = core.Config
	// Alert names the probable faulty devices.
	Alert = core.Alert
)

// Violation causes. CheckTiming flags a structurally valid transition whose
// inter-window gap falls outside the interval band learned during training
// (Cause.Family() == FamilyTiming).
const (
	CheckCorrelation = core.CheckCorrelation
	CheckTiming      = core.CheckTiming
	FamilyTiming     = core.FamilyTiming
)

// DefaultChecks returns the built-in check pipeline in evaluation order:
// ghost, correlation, G2G, G2A, A2G, timing. Pass a reordered or filtered
// slice to WithChecks to reshape the pipeline.
func DefaultChecks() []core.Check { return core.DefaultChecks() }

// DefaultDuration is the paper's empirically optimal window length.
const DefaultDuration = core.DefaultDuration

// NewRegistry returns an empty device registry.
func NewRegistry() *Registry { return device.NewRegistry() }

// NewLayout derives the state-set layout from a registry.
func NewLayout(reg *Registry) *Layout { return window.NewLayout(reg) }

// NewBuilder returns a window builder with the given duration. The slice
// its Add and AdvanceTo return is reused by the next call to either.
func NewBuilder(layout *Layout, duration time.Duration) *window.Builder {
	return window.NewBuilder(layout, duration)
}

// TrainWindows runs both precomputation passes over a window slice.
func TrainWindows(layout *Layout, duration time.Duration, obs []*Observation) (*core.Context, error) {
	return core.TrainWindows(layout, duration, obs)
}

// New builds a real-time detector over a trained context. Tune it with
// WithConfig; WithChecks replaces the check pipeline (the timing check runs
// only against contexts whose payload carries interval sketches).
func New(ctx *core.Context, opts ...core.Option) (*core.Detector, error) {
	return core.New(ctx, opts...)
}

// Detector options, re-exported from internal/core.
var (
	WithConfig = core.WithConfig
	WithChecks = core.WithChecks
)

// LoadContext reads a context saved with Context.Save and binds it to the
// layout. Only the checksummed DICECKS1 envelope loads; a plain-JSON file
// from before the envelope fails (retrain to replace it).
func LoadContext(r io.Reader, layout *Layout) (*core.Context, error) {
	return core.LoadContext(r, layout)
}

// Re-exported multi-tenant hub. A Hub runs many homes behind one process:
// each registered home owns a private detector pipeline, events are routed
// to it on a sharded worker pool (per-home order preserved), and detection
// output is bit-identical to running the home on its own gateway. See
// internal/hub for the full API (CoAP front end, HTTP observability,
// checkpoints and write-ahead logs).
type (
	// TenantAlert is a gateway alert tagged with its home.
	TenantAlert = hub.TenantAlert
	// Event is one raw timestamped device reading, the unit of hub
	// ingestion (Hub.Ingest / Hub.IngestBatch).
	Event = event.Event
)

// NewHub builds an empty hub; homes arrive via Register.
func NewHub(opts ...hub.Option) (*hub.Hub, error) { return hub.New(opts...) }

// Hub and tenant gateway options, re-exported from internal/hub and
// internal/gateway for NewHub and Hub.Register.
var (
	WithShards          = hub.WithShards
	WithShardQueueDepth = hub.WithQueueDepth
	WithGatewayConfig   = gateway.WithConfig
)
