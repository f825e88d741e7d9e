package hub

import (
	"encoding/json"
	"net"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/coap"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/simhome"
	"repro/internal/wire"
)

// The tests in this file serve one tenant the way dice-gateway does: a
// CoAP front with a default home, so devices report over the bare paths
// (/report, /advance, /stats) without naming a tenant.
const defaultHome = "default"

// oneHomeHub registers the trained context as the only tenant and serves
// it on a loopback CoAP front that routes bare paths to it.
func oneHomeHub(t *testing.T, cctx *core.Context, gwOpts ...gateway.Option) (*Hub, *Front) {
	t.Helper()
	h, err := New(WithShards(1), WithAlertBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	if _, err := h.Register(defaultHome, cctx, append(append([]gateway.Option(nil), tenantGwOpts...), gwOpts...)...); err != nil {
		t.Fatal(err)
	}
	front, err := ServeCoAP(h, "127.0.0.1:0", WithDefaultHome(defaultHome))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	return h, front
}

// faultyAfternoon renders the standard robustness workload: an afternoon
// slice with the kitchen light fail-stopped 30 minutes in, rebased to
// stream time zero.
func faultyAfternoon(t testing.TB, h *simhome.Home, hours int) []event.Event {
	t.Helper()
	target, ok := h.Registry().Lookup("light-kitchen")
	if !ok {
		t.Fatal("no kitchen light")
	}
	start := 3*24*60 + 12*60
	var out []event.Event
	for _, e := range h.Events(start, start+hours*60) {
		e.At -= time.Duration(start) * time.Minute
		if e.Device == target && e.At >= 30*time.Minute {
			continue
		}
		out = append(out, e)
	}
	return out
}

// settledTenant drains the default tenant and returns its handle.
func settledTenant(t *testing.T, h *Hub) *Tenant {
	t.Helper()
	if err := h.Drain(defaultHome); err != nil {
		t.Fatal(err)
	}
	tn, ok := h.Tenant(defaultHome)
	if !ok {
		t.Fatal("default tenant vanished")
	}
	return tn
}

// replayThroughCoAP streams evts to a fresh one-home hub over a real UDP
// CoAP exchange, optionally through a chaotic link, and returns what the
// detector produced.
func replayThroughCoAP(t *testing.T, cctx *core.Context, evts []event.Event, cfg chaos.Config) (gateway.Stats, []gateway.Alert, coap.ServerStats, chaos.Stats) {
	t.Helper()
	h, front := oneHomeHub(t, cctx)

	var agent *gateway.Agent
	var link *chaos.Conn
	if cfg.Enabled() {
		inner, err := net.Dial("udp", front.Addr())
		if err != nil {
			t.Fatal(err)
		}
		link = chaos.WrapConn(inner, cfg)
		agent = gateway.NewAgentConn(link)
		agent.Client().AckTimeout = 20 * time.Millisecond
		agent.Client().MaxRetransmit = 12
		agent.Timeout = 60 * time.Second
	} else {
		var err error
		if agent, err = gateway.NewAgent(front.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	for _, e := range evts {
		if err := agent.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Advance(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	var ls chaos.Stats
	if link != nil {
		ls = link.Stats()
	}
	st := settledTenant(t, h).Stats()
	alerts := collectAlerts(t, h, int(st.Alerts))[defaultHome]
	if st.AlertsDropped != 0 {
		t.Errorf("tenant gateway dropped %d alerts", st.AlertsDropped)
	}
	if n := h.met.alertsDropped.Value(); n != 0 {
		t.Errorf("hub forwarder dropped %d alerts", n)
	}
	return st, alerts, front.ServerStats(), ls
}

// TestHubChaosBitIdentical is the headline robustness property: with
// >=10% datagram loss and duplication injected on the /report link, the
// CoAP retransmission + server dedup must make the detector's output —
// windows, violations, alerts — bit-identical to a lossless run.
func TestHubChaosBitIdentical(t *testing.T) {
	h, cctx := trained(t)
	evts := faultyAfternoon(t, h, 4)

	cleanStats, cleanAlerts, _, _ := replayThroughCoAP(t, cctx, evts, chaos.Config{})
	chaosStats, chaosAlerts, srvStats, linkStats := replayThroughCoAP(t, cctx, evts,
		chaos.Config{Seed: 7, Drop: 0.12, Dup: 0.12})

	if linkStats.Dropped == 0 || linkStats.Dups == 0 {
		t.Fatalf("chaos link injected nothing: %+v", linkStats)
	}
	if srvStats.Deduped == 0 {
		t.Error("server never deduplicated despite duplication on the link")
	}
	// The transport counters differ by construction; the detector-visible
	// state must not.
	if cleanStats != chaosStats {
		t.Errorf("detector output diverged under chaos:\n clean: %+v\n chaos: %+v", cleanStats, chaosStats)
	}
	if cleanStats.Violations == 0 || cleanStats.Alerts == 0 {
		t.Error("workload produced no fault signal; the comparison is vacuous")
	}
	if !reflect.DeepEqual(cleanAlerts, chaosAlerts) {
		t.Errorf("alerts diverged under chaos:\n clean: %+v\n chaos: %+v", cleanAlerts, chaosAlerts)
	}
}

// TestHubReportIdempotence resends the exact /report datagram and requires
// the tenant's counters to be unaffected: dedup must absorb the duplicate
// before it reaches ingestion.
func TestHubReportIdempotence(t *testing.T) {
	sim, cctx := trained(t)
	h, front := oneHomeHub(t, cctx)

	start := 3 * 24 * 60
	var batch []event.Event
	for _, e := range sim.Events(start, start+5) {
		e.At -= time.Duration(start) * time.Minute
		batch = append(batch, e)
	}
	if len(batch) == 0 {
		t.Fatal("empty workload")
	}
	req := &coap.Message{Type: coap.Confirmable, Code: coap.CodePOST, MessageID: 41, Token: []byte{3}, Payload: wire.AppendReport(nil, batch)}
	req.SetPath("report")
	data, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("udp", front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func() {
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		buf := make([]byte, 64*1024)
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := coap.Unmarshal(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if resp.Code != coap.CodeChanged {
			t.Fatalf("report answered %v %s", resp.Code, resp.Payload)
		}
	}
	exchange()
	if got := settledTenant(t, h).Stats().Events; got != int64(len(batch)) {
		t.Fatalf("first report ingested %d events, want %d", got, len(batch))
	}
	exchange() // byte-identical retransmission
	if got := settledTenant(t, h).Stats().Events; got != int64(len(batch)) {
		t.Errorf("duplicate report double-ingested: %d events, want %d", got, len(batch))
	}
	if st := front.ServerStats(); st.Deduped != 1 {
		t.Errorf("Deduped = %d, want 1", st.Deduped)
	}
}

// TestHubFrontRejectsJSON: the front reads DWB1 only. A JSON report on
// /report and a JSON clock advance on /advance are each answered
// 4.00 bad-payload, counted as malformed, and reach no tenant.
func TestHubFrontRejectsJSON(t *testing.T) {
	_, cctx := trained(t)
	h, front := oneHomeHub(t, cctx)
	before := settledTenant(t, h).Stats()

	cli, err := coap.Dial(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i, c := range []struct{ path, payload string }{
		{"report", `[{"at":1000,"d":0,"v":1}]`},
		{"advance", `{"at":60000}`},
	} {
		req := &coap.Message{Code: coap.CodePOST, Payload: []byte(c.payload)}
		req.SetPath(c.path)
		resp, err := cli.Do(time.Now().Add(5*time.Second), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Code != coap.CodeBadRequest || string(resp.Payload) != gateway.ReasonBadPayload {
			t.Errorf("/%s with JSON answered %v %q, want %v %q",
				c.path, resp.Code, resp.Payload, coap.CodeBadRequest, gateway.ReasonBadPayload)
		}
		if got := front.malformed.Value(); got != int64(i+1) {
			t.Errorf("after /%s: %s = %d, want %d", c.path, metricHubMalformed, got, i+1)
		}
	}
	if after := settledTenant(t, h).Stats(); after != before {
		t.Errorf("rejected JSON payloads changed the tenant:\n before %+v\n after  %+v", before, after)
	}
}

// TestHubDefaultHomeEndToEnd: an agent that names no tenant reports,
// advances and reads /stats over the bare paths, and the /stats answer is
// settled (the front drains the tenant first).
func TestHubDefaultHomeEndToEnd(t *testing.T) {
	sim, cctx := trained(t)
	_, front := oneHomeHub(t, cctx)

	agent, err := gateway.NewAgent(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	start := 3 * 24 * 60
	evts := sim.Events(start, start+30)
	for _, e := range evts {
		e.At -= time.Duration(start) * time.Minute
		if err := agent.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Advance(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	st, err := agent.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != int64(len(evts)) {
		t.Errorf("tenant saw %d events, want %d", st.Events, len(evts))
	}
	if st.Windows != 30 {
		t.Errorf("tenant closed %d windows, want 30", st.Windows)
	}
}

// Prometheus text-format grammar (0.0.4). Deliberately a fresh copy of the
// regexes in internal/telemetry's tests: the format is the contract between
// the hub and a real scraper, so this test must not share the
// implementation package's notion of validity.
var (
	promHelpRE   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$`)
	promTypeRE   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	promSampleRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[-+]?Inf|[-+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?)$`)
)

// httpGet serves one GET off the hub's observability mux.
func httpGet(h *Hub, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// scrapeMetrics GETs /metrics off the hub's observability mux and
// validates every line against the text-format grammar, returning the set
// of distinct series (sample names without labels).
func scrapeMetrics(t *testing.T, h *Hub) map[string]int {
	t.Helper()
	rec := httpGet(h, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	names := make(map[string]int)
	for _, line := range strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !promHelpRE.MatchString(line) {
				t.Errorf("bad HELP line: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			if !promTypeRE.MatchString(line) {
				t.Errorf("bad TYPE line: %q", line)
			}
		default:
			if !promSampleRE.MatchString(line) {
				t.Errorf("bad sample line: %q", line)
				continue
			}
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			names[name]++
		}
	}
	return names
}

// TestHubMetricsEndpoint drives a faulty stream into a one-home hub, part
// over CoAP and part in-process, and scrapes /metrics: the exposition must
// be grammatical and cover every pipeline stage — window building,
// correlation scan, transition check, identification, gateway bookkeeping,
// CoAP transport, the hub front.
func TestHubMetricsEndpoint(t *testing.T) {
	sim, cctx := trained(t)
	h, front := oneHomeHub(t, cctx, gateway.WithLiveness(40*time.Minute))

	// Reports over CoAP so the transport series move, then the rest of the
	// dead kitchen light stream in-process.
	agent, err := gateway.NewAgent(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	evts := faultyAfternoon(t, sim, 6)
	for i, e := range evts {
		if i < 64 {
			if err := agent.Report(e); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if i == 64 {
			if err := agent.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Ingest(defaultHome, e); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Advance(defaultHome, 6*time.Hour); err != nil {
		t.Fatal(err)
	}
	tn := settledTenant(t, h)

	names := scrapeMetrics(t, h)
	if len(names) < 15 {
		t.Errorf("exposition has %d series, want >= 15", len(names))
	}
	stageRep := []string{
		"dice_window_built_total",      // window builder
		"dice_scan_exact_hit_total",    // correlation scan
		"dice_scan_seconds_count",      // scan latency histogram
		"dice_violations_total",        // transition/correlation violations
		"dice_identify_episodes_total", // identification
		"dice_det_episodes_open",       // multi-fault episode gauge
		"dice_det_alerts_total",        // per-cause alert counter
		"dice_det_concurrent_episodes_total",
		"dice_gateway_events_total", // gateway ingest
		"dice_gateway_alert_latency_seconds_count",
		"dice_coap_received_total", // CoAP transport
		"dice_coap_queue_depth",
		"dice_hub_malformed_total", // hub front
	}
	for _, want := range stageRep {
		if names[want] == 0 {
			t.Errorf("exposition is missing %s", want)
		}
	}

	// The exposition must agree with the Stats views over the same counters.
	rec := httpGet(h, "/tenants/"+defaultHome+"/stats")
	var st gateway.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("GET /tenants/%s/stats: %v", defaultHome, err)
	}
	if st.Events != tn.Stats().Events || st.Events != int64(len(evts)) {
		t.Errorf("/stats events = %d, Stats() = %d, fed %d", st.Events, tn.Stats().Events, len(evts))
	}
	if cs := front.ServerStats(); cs.Received == 0 || cs.Handled == 0 {
		t.Errorf("CoAP stats view empty after traffic: %+v", cs)
	}
	if rec := httpGet(h, "/healthz"); rec.Code != 200 {
		t.Errorf("GET /healthz = %d", rec.Code)
	}
	if rec := httpGet(h, "/debug/pprof/"); rec.Code != 200 {
		t.Errorf("GET /debug/pprof/ = %d", rec.Code)
	}
}

// TestHubAlertsLastEndpoint: 404 before any alert; afterwards the JSON
// carries the Explain trace that names the violated transition.
func TestHubAlertsLastEndpoint(t *testing.T) {
	sim, cctx := trained(t)
	h, _ := oneHomeHub(t, cctx)
	path := "/tenants/" + defaultHome + "/alerts/last"
	if rec := httpGet(h, path); rec.Code != 404 {
		t.Fatalf("GET %s before alerts = %d, want 404", path, rec.Code)
	}

	if err := h.IngestBatch(defaultHome, faultyAfternoon(t, sim, 6)); err != nil {
		t.Fatal(err)
	}
	if err := h.Advance(defaultHome, 6*time.Hour); err != nil {
		t.Fatal(err)
	}
	tn := settledTenant(t, h)
	if tn.Stats().Alerts == 0 {
		t.Fatal("fault raised no alert")
	}

	rec := httpGet(h, path)
	if rec.Code != 200 {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	var got struct {
		Cause   string        `json:"cause"`
		Explain *core.Explain `json:"explain"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad %s payload: %v\n%s", path, err, rec.Body.String())
	}
	if _, err := core.ParseCheckKind(got.Cause); err != nil {
		t.Errorf("cause %q is not a known check", got.Cause)
	}
	if got.Explain == nil {
		t.Fatalf("%s has no explain trace", path)
	}
	if len(got.Explain.Steps) == 0 {
		t.Error("explain trace has no steps")
	}
	if got.Explain.Cause.String() != got.Cause {
		t.Errorf("trace cause %s, alert cause %s", got.Explain.Cause, got.Cause)
	}

	// LastAlert returns a copy: mutating it must not corrupt the stored one.
	a, ok := tn.LastAlert()
	if !ok {
		t.Fatal("LastAlert empty after an alert")
	}
	if len(a.Explain.Steps) > 0 {
		a.Explain.Steps[0].Window = -99
		b, _ := tn.LastAlert()
		if b.Explain.Steps[0].Window == -99 {
			t.Error("LastAlert aliases internal state")
		}
	}
}
