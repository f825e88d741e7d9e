package hub

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/coap"
	"repro/internal/core"
	"repro/internal/gateway"
)

// GET /context/{home} over CoAP must report the active schema and timing
// capability, matching the HTTP /tenants/{home}/context view.
func TestHubCoAPContextResource(t *testing.T) {
	_, cctx := trained(t)
	hub, err := New(WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if _, err := hub.Register("home-a", cctx, tenantGwOpts...); err != nil {
		t.Fatal(err)
	}
	front, err := ServeCoAP(hub, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()

	cl, err := coap.Dial(front.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	get := func(path string) *coap.Message {
		t.Helper()
		req := &coap.Message{Code: coap.CodeGET}
		req.SetPath(path)
		deadline := time.Now().Add(5 * time.Second)
		resp, err := cl.Do(deadline, req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get("context/home-a")
	if resp.Code != coap.CodeContent {
		t.Fatalf("GET /context/home-a code = %v", resp.Code)
	}
	var info gateway.ContextInfo
	if err := json.Unmarshal(resp.Payload, &info); err != nil {
		t.Fatalf("payload: %v", err)
	}
	if info.ContextSchema != core.ContextSchemaV2 || !info.TimingCapable {
		t.Errorf("GET /context/home-a = %+v, want schema %d and timing capable",
			info, core.ContextSchemaV2)
	}
	if resp := get("context/nobody"); resp.Code != coap.CodeNotFound {
		t.Errorf("GET /context/nobody code = %v, want 4.04", resp.Code)
	}
}
