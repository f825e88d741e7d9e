package gateway

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/coap"
	"repro/internal/event"
	"repro/internal/wire"
)

// Stable CodeBadRequest reason codes that a CoAP front (internal/hub)
// answers devices with. Remote peers see only these; anything more
// specific is observable via telemetry.
const (
	// ReasonBadPayload: the payload decoded as neither a binary batch nor
	// the legacy JSON schema (or failed its CRC).
	ReasonBadPayload = "bad-payload"
	// ReasonRejected: the payload decoded, but the gateway refused it
	// (time regression, ingest hook veto).
	ReasonRejected = "rejected"
	// ReasonMethod: the resource requires a POST.
	ReasonMethod = "method-not-allowed"
)

// WireEvent is one reading in a JSON report payload.
type WireEvent struct {
	// AtMS is the stream-time offset in milliseconds.
	AtMS int64 `json:"at"`
	// Device is the device ID in the shared registry.
	Device int `json:"d"`
	// Value is the reading.
	Value float64 `json:"v"`
}

// WireFormat selects the encoding an Agent puts on the wire.
type WireFormat uint8

const (
	// WireBinary is the internal/wire binary batch format (the default):
	// fixed-width records, CRC-framed, decoded on the gateway through the
	// pooled zero-alloc path. Binary keeps full nanosecond timestamps.
	WireBinary WireFormat = iota
	// WireJSON is the legacy JSON array encoding. Timestamps truncate to
	// milliseconds on the wire.
	WireJSON
)

// Agent is the device-side helper: it batches readings and posts them to a
// CoAP front end (hub.ServeCoAP).
type Agent struct {
	cli     *coap.Client
	pending []event.Event
	enc     []byte // reused encode buffer for binary payloads
	// BatchSize is how many readings are sent per POST (default 16).
	BatchSize int
	// Timeout bounds each exchange (default 5s).
	Timeout time.Duration
	// Format selects the wire encoding (default WireBinary). Set WireJSON
	// to exercise the legacy JSON path.
	Format WireFormat
	// Home, when set, addresses a tenant behind a multi-home hub: requests
	// go to /report/{home}, /advance/{home}, /stats/{home} instead of the
	// bare paths, which reach the front's default home.
	Home string
	// Retries bounds how many times a timed-out exchange is reissued as a
	// fresh request, with exponential backoff + jitter between attempts —
	// the layer above the CON retransmission schedule, for outages that
	// outlast a whole ladder (gateway restart, tenant migration). Zero (the
	// default) keeps the single-exchange behaviour. Each reissue is a new
	// exchange (new Message ID), so the gateway's dedup cache does not
	// absorb it: enable retries only against idempotent resources or when
	// at-least-once reporting is acceptable.
	Retries int
	// RetryBackoff is the base delay before the first reissue (default
	// 250ms); it doubles per attempt, capped at 5s, with uniform jitter of
	// up to half the delay added so synchronized agents do not stampede a
	// recovering gateway.
	RetryBackoff time.Duration
}

// path renders a resource path, suffixed with the tenant segment when the
// agent reports into a multi-home hub.
func (a *Agent) path(base string) string {
	if a.Home == "" {
		return base
	}
	return base + "/" + a.Home
}

// NewAgent dials a CoAP front end.
func NewAgent(addr string) (*Agent, error) {
	cli, err := coap.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Agent{cli: cli, BatchSize: 16, Timeout: 5 * time.Second}, nil
}

// NewAgentConn builds an agent over an existing connected datagram conn —
// e.g. a chaos-wrapped one — and takes ownership of it.
func NewAgentConn(conn net.Conn) *Agent {
	return &Agent{cli: coap.NewClient(conn), BatchSize: 16, Timeout: 5 * time.Second}
}

// Client exposes the underlying CoAP client so callers can tune its
// retransmission parameters.
func (a *Agent) Client() *coap.Client { return a.cli }

// Close flushes pending readings and releases the socket.
func (a *Agent) Close() error {
	flushErr := a.Flush()
	closeErr := a.cli.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Report queues one reading, flushing when the batch is full.
func (a *Agent) Report(e event.Event) error {
	a.pending = append(a.pending, e)
	if len(a.pending) >= a.BatchSize {
		return a.Flush()
	}
	return nil
}

// Flush posts all queued readings.
func (a *Agent) Flush() error {
	if len(a.pending) == 0 {
		return nil
	}
	var payload []byte
	if a.Format == WireJSON {
		batch := make([]WireEvent, len(a.pending))
		for i, e := range a.pending {
			batch[i] = WireEvent{AtMS: e.At.Milliseconds(), Device: int(e.Device), Value: e.Value}
		}
		var err error
		payload, err = json.Marshal(batch)
		if err != nil {
			return err
		}
	} else {
		a.enc = wire.AppendReport(a.enc[:0], a.pending)
		payload = a.enc
	}
	req := &coap.Message{Code: coap.CodePOST, Payload: payload}
	req.SetPath(a.path("report"))
	resp, err := a.do(req)
	if err != nil {
		return err
	}
	if resp.Code != coap.CodeChanged {
		return fmt.Errorf("gateway: report rejected: %s %s", resp.Code, resp.Payload)
	}
	a.pending = a.pending[:0]
	return nil
}

// Advance pushes the gateway's stream clock to t.
func (a *Agent) Advance(t time.Duration) error {
	if err := a.Flush(); err != nil {
		return err
	}
	var payload []byte
	if a.Format == WireJSON {
		var err error
		payload, err = json.Marshal(struct {
			AtMS int64 `json:"at"`
		}{t.Milliseconds()})
		if err != nil {
			return err
		}
	} else {
		a.enc = wire.AppendAdvance(a.enc[:0], t)
		payload = a.enc
	}
	req := &coap.Message{Code: coap.CodePOST, Payload: payload}
	req.SetPath(a.path("advance"))
	resp, err := a.do(req)
	if err != nil {
		return err
	}
	if resp.Code != coap.CodeChanged {
		return fmt.Errorf("gateway: advance rejected: %s %s", resp.Code, resp.Payload)
	}
	return nil
}

// Stats fetches the gateway counters.
func (a *Agent) Stats() (Stats, error) {
	req := &coap.Message{Code: coap.CodeGET}
	req.SetPath(a.path("stats"))
	resp, err := a.do(req)
	if err != nil {
		return Stats{}, err
	}
	var s Stats
	if err := json.Unmarshal(resp.Payload, &s); err != nil {
		return Stats{}, fmt.Errorf("gateway: bad stats payload: %w", err)
	}
	return s, nil
}

// maxRetryBackoff caps the exponential reissue delay.
const maxRetryBackoff = 5 * time.Second

func (a *Agent) do(req *coap.Message) (*coap.Message, error) {
	timeout := a.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := a.cli.Do(time.Now().Add(timeout), req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if attempt >= a.Retries {
			return nil, lastErr
		}
		base := a.RetryBackoff
		if base <= 0 {
			base = 250 * time.Millisecond
		}
		delay := base << attempt
		if delay > maxRetryBackoff || delay <= 0 {
			delay = maxRetryBackoff
		}
		// Full-jitter on the top half: uniform in [delay/2, delay).
		delay = delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
		time.Sleep(delay)
	}
}
