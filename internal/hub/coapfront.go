package hub

import (
	"encoding/json"
	"errors"
	"strings"

	"repro/internal/coap"
	"repro/internal/gateway"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Wire format for device reports. Devices POST a batch of readings to
// /report; the tenant's gateway windows them and runs DICE. A device may
// also POST /advance to push stream time forward during silent stretches
// (the simulated aggregators do this once per minute). The tenant is the
// last path segment:
//
//	POST /report/{home}    batch of readings (DWB1)
//	POST /advance/{home}   stream-clock advance (DWB1)
//	GET  /stats/{home}     tenant Stats (drained first, so it is settled)
//	GET  /context/{home}   active context version, schema, timing capability
//	GET  /liveness/{home}  tenant silence tracker
//
// The bare paths (/report, /advance, ...) reach the front's default home
// when it has one (WithDefaultHome), so a single-home device agent reports
// without naming a tenant; dice-gateway serves that way.
//
// Payloads are the binary batch format of internal/wire (magic "DWB1"),
// and each one rides the one-op Hub.IngestBatch path; anything else is
// answered bad-payload. Error responses carry stable short reason codes
// (gateway.Reason* plus "unknown-home"), never internal error text: the
// detail stays on the hub telemetry (dice_hub_malformed_total) rather than
// being echoed to an unauthenticated UDP peer.

// ReasonUnknownHome is the CodeNotFound reason for an unregistered tenant.
const ReasonUnknownHome = "unknown-home"

// metricHubMalformed counts report/advance payloads that failed to decode
// at the hub front.
const metricHubMalformed = "dice_hub_malformed_total"

// Front serves the hub's CoAP API.
type Front struct {
	h         *Hub
	srv       *coap.Server
	def       string
	malformed *telemetry.Counter
}

// FrontOption configures a CoAP front.
type FrontOption func(*frontOptions)

type frontOptions struct {
	def string
}

// WithDefaultHome routes bare (un-suffixed) paths to the given tenant, for
// single-home device agents that predate the hub.
func WithDefaultHome(home string) FrontOption {
	return func(o *frontOptions) { o.def = home }
}

// ServeCoAP starts the hub's CoAP front end on addr (":0" picks a free
// port). Transport counters register against the hub's own registry.
func ServeCoAP(h *Hub, addr string, opts ...FrontOption) (*Front, error) {
	var o frontOptions
	for _, opt := range opts {
		opt(&o)
	}
	f := &Front{
		h:         h,
		def:       o.def,
		malformed: h.Telemetry().Counter(metricHubMalformed, "Report/advance payloads that failed to decode at the hub front."),
	}
	srv, err := coap.ListenAndServe(addr, f.handle, coap.WithTelemetry(h.Telemetry()))
	if err != nil {
		return nil, err
	}
	f.srv = srv
	return f, nil
}

// Addr returns the bound UDP address string.
func (f *Front) Addr() string { return f.srv.Addr().String() }

// Close stops the front end.
func (f *Front) Close() error { return f.srv.Close() }

// ServerStats returns the CoAP server's transport counters.
func (f *Front) ServerStats() coap.ServerStats { return f.srv.Stats() }

// split resolves a request path into (resource, home). A missing home
// segment falls back to the front's default tenant (empty when unset).
func (f *Front) split(path string) (string, string) {
	res, home, ok := strings.Cut(path, "/")
	if !ok {
		return res, f.def
	}
	return res, home
}

// errResponse maps an application error to a stable reason code. Unknown
// homes are the one distinction remote peers need (re-register and retry);
// everything else is an opaque rejection with detail on the hub telemetry.
func errResponse(err error) *coap.Message {
	if errors.Is(err, ErrUnknownHome) {
		return &coap.Message{Code: coap.CodeNotFound, Payload: []byte(ReasonUnknownHome)}
	}
	return &coap.Message{Code: coap.CodeBadRequest, Payload: []byte(gateway.ReasonRejected)}
}

// handleBatch decodes one DWB1 batch and routes it as a single shard op.
// The decode scratch is wire-pooled and returned before this function does:
// Hub.IngestBatch copies into a hub-owned slice at enqueue because shard
// ops apply asynchronously.
func (f *Front) handleBatch(home string, payload []byte) *coap.Message {
	scratch := wire.GetEvents()
	b, err := wire.DecodeBatch(payload, *scratch)
	if err != nil {
		wire.PutEvents(scratch)
		f.malformed.Inc()
		return &coap.Message{Code: coap.CodeBadRequest, Payload: []byte(gateway.ReasonBadPayload)}
	}
	*scratch = b.Events
	var opErr error
	switch b.Kind {
	case wire.KindReport:
		opErr = f.h.IngestBatch(home, b.Events)
	case wire.KindAdvance:
		opErr = f.h.Advance(home, b.At)
	}
	wire.PutEvents(scratch)
	if opErr != nil {
		return errResponse(opErr)
	}
	return &coap.Message{Code: coap.CodeChanged}
}

func (f *Front) handle(req *coap.Message) *coap.Message {
	res, home := f.split(req.Path())
	switch res {
	case "report":
		if req.Code != coap.CodePOST {
			return &coap.Message{Code: coap.CodeBadRequest, Payload: []byte(gateway.ReasonMethod)}
		}
		return f.handleBatch(home, req.Payload)
	case "advance":
		return f.handleBatch(home, req.Payload)
	case "stats":
		// Drain first so the snapshot covers every op this client already
		// got an ACK for — the same read-your-writes contract a solo
		// gateway's synchronous /stats gives.
		if err := f.h.Drain(home); err != nil {
			return errResponse(err)
		}
		t, ok := f.h.Tenant(home)
		if !ok { // evicted between the drain and the lookup
			return &coap.Message{Code: coap.CodeNotFound}
		}
		data, err := json.Marshal(t.Stats())
		if err != nil {
			return &coap.Message{Code: coap.CodeInternal}
		}
		return &coap.Message{Code: coap.CodeContent, Payload: data}
	case "context":
		if err := f.h.Drain(home); err != nil {
			return errResponse(err)
		}
		t, ok := f.h.Tenant(home)
		if !ok {
			return &coap.Message{Code: coap.CodeNotFound}
		}
		data, err := json.Marshal(t.ContextInfo())
		if err != nil {
			return &coap.Message{Code: coap.CodeInternal}
		}
		return &coap.Message{Code: coap.CodeContent, Payload: data}
	case "liveness":
		if err := f.h.Drain(home); err != nil {
			return errResponse(err)
		}
		t, ok := f.h.Tenant(home)
		if !ok {
			return &coap.Message{Code: coap.CodeNotFound}
		}
		data, err := json.Marshal(t.Liveness())
		if err != nil {
			return &coap.Message{Code: coap.CodeInternal}
		}
		return &coap.Message{Code: coap.CodeContent, Payload: data}
	default:
		return &coap.Message{Code: coap.CodeNotFound}
	}
}
