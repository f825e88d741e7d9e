package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/gateway"
	"repro/internal/hub"
	"repro/internal/wire"
)

// forwardedHeader marks a proxied ingest so it is served authoritatively
// by the receiver — one hop, never a proxy loop.
const forwardedHeader = "X-Dice-Forwarded"

// handler builds the node's mux. Cluster-internal endpoints live under
// /cluster/; the operator-facing /metrics and /tenants are cluster-merged
// versions of the hub's, and everything else falls through to the embedded
// hub's observability mux.
//
//	POST /cluster/heartbeat      peer liveness gossip
//	POST /cluster/ingest/{home}  binary batch (DWB1); 200 = durably applied
//	POST /cluster/adopt          receive a migrated tenant's state envelope
//	GET  /cluster/hosted/{home}  "true"/"false": does this node host home
//	GET  /cluster/metrics        node-local exposition (merge fodder)
//	GET  /cluster/tenants        node-local tenant rows (merge fodder)
//	GET  /metrics                cluster-merged exposition, node="<id>" labels
//	GET  /tenants                cluster-merged tenant rows with node IDs
func (n *Node) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/heartbeat", n.handleHeartbeat)
	mux.HandleFunc("POST /cluster/ingest/{home}", n.handleIngest)
	mux.HandleFunc("POST /cluster/adopt", n.handleAdopt)
	mux.HandleFunc("GET /cluster/hosted/{home}", func(w http.ResponseWriter, r *http.Request) {
		home := r.PathValue("home")
		_, ok := n.h.Tenant(home)
		// A home mid-export claims "hosted": the prober must not adopt it
		// while the envelope is in flight to the real adopter.
		fmt.Fprintf(w, "%v", ok || n.isExporting(home)) //nolint:errcheck // client went away
	})
	mux.HandleFunc("GET /cluster/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		n.h.WriteMetrics(w) //nolint:errcheck // client went away
	})
	mux.HandleFunc("GET /cluster/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, n.localTenantRows())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		n.writeClusterMetrics(r.Context(), w)
	})
	mux.HandleFunc("GET /tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, n.clusterTenantRows(r.Context()))
	})
	mux.Handle("/", n.h.HTTPHandler())
	return mux
}

func (n *Node) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var msg heartbeatMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&msg); err != nil {
		http.Error(w, "bad heartbeat", http.StatusBadRequest)
		return
	}
	if p, ok := n.peers[msg.From]; ok {
		n.met.heartbeats.Inc()
		n.markSeen(p)
	}
	writeJSON(w, heartbeatMsg{From: n.id})
}

// handleIngest is the cluster's ack discipline in one handler: a 200 means
// the batch was applied and a barrier confirmed it — after the response,
// the events survive any single-node death. Anything retryable (shed,
// mid-migration, a stale route) maps to a status the client's retry loop
// recognizes; the client re-sending an unacked batch is the at-least-once
// edge every distributed ingest has, and the drills sequence kills between
// acked batches to keep the bit-identity oracle exact.
func (n *Node) handleIngest(w http.ResponseWriter, r *http.Request) {
	home := r.PathValue("home")
	payload, err := io.ReadAll(io.LimitReader(r.Body, 16<<20))
	if err != nil {
		http.Error(w, "read body", http.StatusBadRequest)
		return
	}
	if n.isExporting(home) {
		http.Error(w, "home mid-handoff", http.StatusConflict)
		return
	}
	if _, ok := n.h.Tenant(home); ok {
		n.applyIngest(w, home, payload)
		return
	}
	if r.Header.Get(forwardedHeader) != "" {
		// One hop only: we were chosen as the host. Adopt if nobody else
		// has it; never proxy a proxied request.
		hostedBy, err := n.ensureLocal(r.Context(), home)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		if hostedBy != "" {
			http.Error(w, "hosted by "+hostedBy, http.StatusNotFound)
			return
		}
		n.applyIngest(w, home, payload)
		return
	}
	target := n.routeTarget(home)
	if target == n.id {
		hostedBy, err := n.ensureLocal(r.Context(), home)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		if hostedBy != "" {
			n.proxyIngest(r.Context(), w, hostedBy, home, payload)
			return
		}
		n.applyIngest(w, home, payload)
		return
	}
	n.proxyIngest(r.Context(), w, target, home, payload)
}

// applyIngest decodes and applies one binary batch locally, draining the
// home before acking so the 200 asserts durability, not just enqueueing.
func (n *Node) applyIngest(w http.ResponseWriter, home string, payload []byte) {
	scratch := wire.GetEvents()
	defer wire.PutEvents(scratch)
	b, err := wire.DecodeBatch(payload, *scratch)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	*scratch = b.Events
	switch b.Kind {
	case wire.KindReport:
		err = n.h.IngestBatch(home, b.Events)
	case wire.KindAdvance:
		err = n.h.Advance(home, b.At)
	default:
		http.Error(w, "unknown batch kind", http.StatusBadRequest)
		return
	}
	if err == nil {
		err = n.h.Drain(home)
	}
	switch {
	case err == nil:
		w.WriteHeader(http.StatusOK)
	case errors.Is(err, hub.ErrMigrating), errors.Is(err, hub.ErrUnknownHome):
		// Mid-migration (or it just moved): nothing was applied; the
		// client's retry re-routes to the new owner.
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, hub.ErrDeadline), errors.Is(err, hub.ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// proxyIngest forwards a batch to the node believed to host home, with the
// standard retry envelope. A 404 carries the receiver's best knowledge
// ("hosted by <id>") and redirects the proxy up to twice before giving up;
// a bare 404 drops the stale hint and falls back to adopting locally if
// placement says we own it.
func (n *Node) proxyIngest(ctx context.Context, w http.ResponseWriter, target, home string, payload []byte) {
	for hop := 0; hop < 3; hop++ {
		p, ok := n.peers[target]
		if !ok {
			http.Error(w, "unknown route target "+target, http.StatusServiceUnavailable)
			return
		}
		n.met.proxied.Inc()
		_, err := n.callForwarded(ctx, "http://"+p.addr+"/cluster/ingest/"+home, payload)
		if err == nil {
			n.setHint(home, target)
			w.WriteHeader(http.StatusOK)
			return
		}
		var se *errStatus
		if !errors.As(err, &se) || se.code != http.StatusNotFound {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		n.setHint(home, "")
		if host, ok := strings.CutPrefix(strings.TrimSpace(se.body), "hosted by "); ok && host != n.id && host != target {
			target = host
			continue
		}
		if Owner(home, n.aliveNodes()) == n.id {
			hostedBy, lerr := n.ensureLocal(ctx, home)
			if lerr == nil && hostedBy == "" {
				n.applyIngest(w, home, payload)
				return
			}
		}
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	http.Error(w, "route for "+home+" did not converge", http.StatusServiceUnavailable)
}

// callForwarded is call() with the one-hop marker set.
func (n *Node) callForwarded(ctx context.Context, url string, body []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		lastErr = func() error {
			cctx, cancel := context.WithTimeout(ctx, n.o.callTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(cctx, http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				return err
			}
			req.Header.Set(forwardedHeader, "1")
			resp, err := n.hc.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) //nolint:errcheck // best-effort error text
			if resp.StatusCode < 200 || resp.StatusCode > 299 {
				return &errStatus{code: resp.StatusCode, body: string(data)}
			}
			return nil
		}()
		if lastErr == nil {
			return nil, nil
		}
		if attempt >= n.o.retries || !retryable(lastErr) || ctx.Err() != nil {
			return nil, lastErr
		}
		n.met.retries.Inc()
		if err := sleepBackoff(ctx, n.o.retryBackoff, attempt); err != nil {
			return nil, lastErr
		}
	}
}

func (n *Node) handleAdopt(w http.ResponseWriter, r *http.Request) {
	var exp hub.ExportedTenant
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&exp); err != nil {
		http.Error(w, "bad export envelope", http.StatusBadRequest)
		return
	}
	if n.o.resolve == nil {
		http.Error(w, "no catalog resolver", http.StatusNotImplemented)
		return
	}
	cctx, gwOpts, err := n.o.resolve(exp.Home)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if _, err := n.h.Adopt(&exp, cctx, gwOpts...); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	n.setHint(exp.Home, "")
	w.WriteHeader(http.StatusOK)
}

// TenantRow is one home's placement and counters in the merged /tenants.
type TenantRow struct {
	Node  string        `json:"node"`
	Home  string        `json:"home"`
	Stats gateway.Stats `json:"stats"`
}

func (n *Node) localTenantRows() []TenantRow {
	out := []TenantRow{}
	for _, home := range n.h.Homes() {
		if t, ok := n.h.Tenant(home); ok {
			out = append(out, TenantRow{Node: n.id, Home: home, Stats: t.Stats()})
		}
	}
	return out
}

// clusterTenantRows merges every reachable node's tenant rows; unreachable
// peers are skipped (their homes show up once fail-over re-places them).
func (n *Node) clusterTenantRows(ctx context.Context) []TenantRow {
	rows := n.localTenantRows()
	for _, p := range n.alivePeerList() {
		body, err := n.doOnce(ctx, http.MethodGet, "http://"+p.addr+"/cluster/tenants", nil)
		if err != nil {
			continue
		}
		var peerRows []TenantRow
		if json.Unmarshal(body, &peerRows) != nil {
			continue
		}
		for i := range peerRows {
			peerRows[i].Node = p.id
		}
		rows = append(rows, peerRows...)
	}
	return rows
}

// writeClusterMetrics renders the cluster-merged exposition: this node's
// merged hub text plus every reachable peer's, each sample line stamped
// with a node label. Peer comment lines are dropped (the local exposition
// already carries HELP/TYPE for the shared series).
func (n *Node) writeClusterMetrics(ctx context.Context, w io.Writer) {
	var buf bytes.Buffer
	n.h.WriteMetrics(&buf) //nolint:errcheck // bytes.Buffer never fails
	relabelExposition(w, buf.Bytes(), n.id, true)
	for _, p := range n.alivePeerList() {
		body, err := n.doOnce(ctx, http.MethodGet, "http://"+p.addr+"/cluster/metrics", nil)
		if err != nil {
			continue
		}
		relabelExposition(w, body, p.id, false)
	}
}

// relabelExposition injects node="<id>" into every sample line of a
// text-format exposition. Comment lines pass through only when keepHelp.
func relabelExposition(w io.Writer, text []byte, nodeID string, keepHelp bool) {
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if keepHelp {
				fmt.Fprintln(w, line) //nolint:errcheck // client went away
			}
			continue
		}
		if i := strings.IndexByte(line, '{'); i >= 0 {
			fmt.Fprintf(w, "%s{node=%q,%s\n", line[:i], nodeID, line[i+1:]) //nolint:errcheck // client went away
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			fmt.Fprintf(w, "%s{node=%q}%s\n", line[:i], nodeID, line[i:]) //nolint:errcheck // client went away
		} else {
			fmt.Fprintln(w, line) //nolint:errcheck // client went away
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}
