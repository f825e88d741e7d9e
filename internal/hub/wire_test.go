package hub

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/simhome"
)

// TestHubAgentMatchesIngestBatch replays the same faulty stream into two
// tenants of one hub — one through a device agent over the CoAP front, one
// by direct IngestBatch calls — and requires identical per-home detection
// output: the DWB1 encode, the front's decode and its per-batch routing
// add nothing and lose nothing.
func TestHubAgentMatchesIngestBatch(t *testing.T) {
	h, cctx := trained(t)
	bulb, ok := h.Registry().Lookup("bulb-kitchen")
	if !ok {
		t.Fatal("no kitchen bulb")
	}
	start := 3*24*60 + 12*60
	faulty := h.WithActuatorFaults(simhome.ActuatorFaults{
		Spurious:   map[device.ID]bool{bulb: true},
		Seed:       3,
		FromMinute: start,
	})
	var evts []event.Event
	for _, e := range faulty.Events(start, start+2*60) {
		e.At -= time.Duration(start) * time.Minute
		evts = append(evts, e)
	}

	hub, err := New(WithShards(2), WithAlertBuffer(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	for _, home := range []string{"coap", "direct"} {
		if _, err := hub.Register(home, cctx, tenantGwOpts...); err != nil {
			t.Fatal(err)
		}
	}
	front, err := ServeCoAP(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	agent, err := gateway.NewAgent(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	agent.Home = "coap"
	for _, e := range evts {
		if err := agent.Report(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Advance(streamEnd); err != nil {
		t.Fatal(err)
	}
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hub.IngestBatch("direct", evts); err != nil {
		t.Fatal(err)
	}
	if err := hub.Advance("direct", streamEnd); err != nil {
		t.Fatal(err)
	}
	if err := hub.DrainAll(); err != nil {
		t.Fatal(err)
	}

	tnCoAP, _ := hub.Tenant("coap")
	tnDirect, _ := hub.Tenant("direct")
	if tnCoAP.Stats() != tnDirect.Stats() {
		t.Errorf("stats diverged:\n coap   %+v\n direct %+v", tnCoAP.Stats(), tnDirect.Stats())
	}
	if tnCoAP.Stats().Events != int64(len(evts)) {
		t.Errorf("coap tenant saw %d events, fed %d", tnCoAP.Stats().Events, len(evts))
	}
	if tnCoAP.Stats().Violations == 0 {
		t.Error("faulty stream produced no violations; the comparison is vacuous")
	}
	total := int(tnCoAP.Stats().Alerts + tnDirect.Stats().Alerts)
	byHome := collectAlerts(t, hub, total)
	if !reflect.DeepEqual(byHome["coap"], byHome["direct"]) {
		t.Errorf("alert sequences diverged: coap=%d direct=%d alerts",
			len(byHome["coap"]), len(byHome["direct"]))
	}
	if f := front.malformed.Value(); f != 0 {
		t.Errorf("malformed counter = %d on a clean link", f)
	}
}
