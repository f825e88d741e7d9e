package coap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Handler processes an incoming request and returns the response message
// (its Type/MessageID/Token are filled in by the server).
type Handler func(req *Message) *Message

// ServerConfig tunes the server's robustness machinery. The zero value
// selects the defaults noted on each field.
type ServerConfig struct {
	// Workers is the number of handler goroutines (default 8). The read
	// loop never calls the handler inline, so one slow request cannot
	// stall reads.
	Workers int
	// QueueDepth bounds requests waiting for a free worker (default 64).
	// When the queue is full the request is dropped and counted; a
	// confirmable sender recovers by retransmitting.
	QueueDepth int
	// ExchangeLifetime is how long a (peer, MessageID) exchange stays in
	// the deduplication cache (RFC 7252 §4.8.2 EXCHANGE_LIFETIME,
	// default 247s).
	ExchangeLifetime time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.ExchangeLifetime <= 0 {
		c.ExchangeLifetime = 247 * time.Second
	}
	return c
}

// ServerStats counts server activity; all fields are cumulative. It is a
// snapshot view over the server's telemetry counters, so the same numbers
// appear here and on a /metrics exposition of the shared registry.
type ServerStats struct {
	// Received counts well-formed requests read off the socket.
	Received int64
	// Handled counts handler invocations (each exchange exactly once).
	Handled int64
	// Deduped counts retransmissions absorbed by the exchange cache,
	// including retransmissions of exchanges still being handled.
	Deduped int64
	// Dropped counts requests discarded because the worker queue was full.
	Dropped int64
	// Malformed counts datagrams that failed to parse.
	Malformed int64
}

// CoAP-stage metric names. Registered against the gateway's registry when
// the server is built with WithTelemetry; against a private registry
// otherwise, so ServerStats always has a backing store.
const (
	metricCoAPReceived   = "dice_coap_received_total"
	metricCoAPHandled    = "dice_coap_handled_total"
	metricCoAPDeduped    = "dice_coap_deduped_total"
	metricCoAPDropped    = "dice_coap_dropped_total"
	metricCoAPMalformed  = "dice_coap_malformed_total"
	metricCoAPQueueDepth = "dice_coap_queue_depth"
)

// srvMetrics is the telemetry backing of ServerStats plus the worker-pool
// queue gauge.
type srvMetrics struct {
	received   *telemetry.Counter
	handled    *telemetry.Counter
	deduped    *telemetry.Counter
	dropped    *telemetry.Counter
	malformed  *telemetry.Counter
	queueDepth *telemetry.Gauge
}

func newSrvMetrics(reg *telemetry.Registry) srvMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return srvMetrics{
		received:   reg.Counter(metricCoAPReceived, "Well-formed CoAP requests read off the socket."),
		handled:    reg.Counter(metricCoAPHandled, "Handler invocations (each exchange exactly once)."),
		deduped:    reg.Counter(metricCoAPDeduped, "Retransmissions absorbed by the RFC 7252 exchange cache."),
		dropped:    reg.Counter(metricCoAPDropped, "Requests shed because the worker queue was full."),
		malformed:  reg.Counter(metricCoAPMalformed, "Datagrams that failed to parse."),
		queueDepth: reg.Gauge(metricCoAPQueueDepth, "Requests currently waiting for or held by a worker."),
	}
}

// dedupKey identifies one exchange: the source endpoint plus the Message
// ID (RFC 7252 §4.5), plus the request token. The 16-bit Message ID wraps
// after 65,536 exchanges, which a busy client reaches well inside
// ExchangeLifetime; a retransmission repeats its token byte for byte, while
// a new exchange that reuses a Message ID carries a fresh one. The key is
// fixed-size and pointer-free, so building it formats nothing and the
// garbage collector never scans the cache's keys.
type dedupKey struct {
	addr [16]byte // IPv4 peers in their IPv4-mapped form
	port uint16
	zone uint16 // 1 + index into Server.zones; 0 for no zone
	mid  uint16
	tkl  uint8
	tok  [8]byte
}

// exchange is one dedup-cache entry. resp stays nil while the handler is
// still running; a retransmission arriving in that window is silently
// absorbed (the sender's next retransmission finds the cached response).
type exchange struct {
	resp []byte
	born time.Duration // since Server.epoch
}

type job struct {
	req  *Message
	peer net.Addr
	key  dedupKey
	con  bool
}

// Server is a minimal CoAP-over-UDP server: it answers confirmable and
// non-confirmable requests through a single handler, deduplicating
// retransmitted exchanges and dispatching handlers on a bounded worker
// pool.
type Server struct {
	conn    net.PacketConn
	handler Handler
	cfg     ServerConfig
	queue   chan job

	epoch time.Time // monotonic origin of exchange.born

	mu     sync.Mutex // guards closed, dedup, order, zones
	closed bool
	dedup  map[dedupKey]exchange
	order  []dedupKey // insertion order, for expiry
	zones  []string   // IPv6 zones seen, interned for dedupKey.zone

	met srvMetrics

	serveWG  sync.WaitGroup
	workerWG sync.WaitGroup
}

// ServerOption configures a Server at construction. Tuning goes through
// WithServerConfig; WithTelemetry installs the metrics registry.
type ServerOption func(*srvOptions)

type srvOptions struct {
	cfg ServerConfig
	tel *telemetry.Registry
}

// WithServerConfig replaces the whole tuning config.
func WithServerConfig(cfg ServerConfig) ServerOption {
	return func(o *srvOptions) { o.cfg = cfg }
}

// WithTelemetry registers the server's counters against a shared registry
// (typically the gateway's) instead of a private one, so they appear on
// the /metrics exposition.
func WithTelemetry(reg *telemetry.Registry) ServerOption {
	return func(o *srvOptions) { o.tel = reg }
}

// ListenAndServe starts a server on addr (e.g. "127.0.0.1:5683"); pass
// port 0 to pick a free port. The returned server is already serving.
func ListenAndServe(addr string, handler Handler, opts ...ServerOption) (*Server, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("coap: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("coap: listen: %w", err)
	}
	s, err := Serve(conn, handler, opts...)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return s, nil
}

// Serve serves CoAP on an existing packet conn (which may be a
// fault-injecting wrapper) and takes ownership of it until Close. The
// returned server is already serving.
func Serve(conn net.PacketConn, handler Handler, opts ...ServerOption) (*Server, error) {
	if handler == nil {
		return nil, errors.New("coap: nil handler")
	}
	if conn == nil {
		return nil, errors.New("coap: nil conn")
	}
	var o srvOptions
	for _, opt := range opts {
		opt(&o)
	}
	cfg := o.cfg.withDefaults()
	s := &Server{
		conn:    conn,
		handler: handler,
		cfg:     cfg,
		queue:   make(chan job, cfg.QueueDepth),
		epoch:   time.Now(),
		dedup:   make(map[dedupKey]exchange),
		met:     newSrvMetrics(o.tel),
	}
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	s.serveWG.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() net.Addr {
	return s.conn.LocalAddr()
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Received:  s.met.received.Value(),
		Handled:   s.met.handled.Value(),
		Deduped:   s.met.deduped.Value(),
		Dropped:   s.met.dropped.Value(),
		Malformed: s.met.malformed.Value(),
	}
}

// Close stops the server and waits for the read loop and workers to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.conn.Close()
	s.serveWG.Wait() // serve() is the only sender on queue
	close(s.queue)
	s.workerWG.Wait()
	return err
}

func (s *Server) serve() {
	defer s.serveWG.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, peer, err := s.conn.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		req, err := Unmarshal(buf[:n])
		if err != nil {
			s.met.malformed.Inc()
			continue // drop malformed datagrams
		}
		if req.Type != Confirmable && req.Type != NonConfirmable {
			continue // we never originate requests, so ACK/RST are stray
		}
		ap, ok := peerAddrPort(peer)
		if !ok {
			s.met.malformed.Inc()
			continue // not an IP peer: nothing to key its exchanges by
		}

		s.met.received.Inc()
		now := time.Since(s.epoch)
		s.mu.Lock()
		s.purgeLocked(now)
		key := s.keyLocked(ap, req.MessageID, req.Token)
		if e, ok := s.dedup[key]; ok {
			// RFC 7252 §4.5: a retransmitted exchange must not reach the
			// handler again. Replay the cached piggybacked ACK for a
			// Confirmable retransmission; while the original is still in
			// flight (resp == nil), or for a NON duplicate, stay silent.
			s.met.deduped.Inc()
			resp := e.resp
			s.mu.Unlock()
			if resp != nil && req.Type == Confirmable {
				s.conn.WriteTo(resp, peer) //nolint:errcheck // peer retransmits on loss
			}
			continue
		}
		s.dedup[key] = exchange{born: now}
		s.order = append(s.order, key)
		s.mu.Unlock()

		select {
		case s.queue <- job{req: req, peer: peer, key: key, con: req.Type == Confirmable}:
			s.met.queueDepth.Add(1)
		default:
			// Queue full: shed the request. Forget the exchange so the
			// sender's retransmission gets a fresh chance at a worker.
			s.mu.Lock()
			delete(s.dedup, key)
			s.mu.Unlock()
			s.met.dropped.Inc()
		}
	}
}

// purgeLocked expires exchanges older than ExchangeLifetime. Entries are
// appended to order at birth, so the prefix is oldest-first; a key whose
// map entry is missing was shed by the queue-full path. Dropping the prefix
// reslices instead of copying: append reclaims the dead head the next time
// order outgrows its array.
func (s *Server) purgeLocked(now time.Duration) {
	cut := 0
	for _, key := range s.order {
		e, ok := s.dedup[key]
		if ok && now-e.born < s.cfg.ExchangeLifetime {
			break
		}
		if ok {
			delete(s.dedup, key)
		}
		cut++
	}
	s.order = s.order[cut:]
}

// peerAddrPort reads a request's source endpoint. A *net.UDPAddr, what
// every UDP conn returns, converts without formatting a string.
func peerAddrPort(peer net.Addr) (netip.AddrPort, bool) {
	if ua, ok := peer.(*net.UDPAddr); ok {
		ap := ua.AddrPort()
		return ap, ap.IsValid()
	}
	ap, err := netip.ParseAddrPort(peer.String())
	return ap, err == nil
}

// keyLocked builds the dedup key of one exchange. IPv4 and IPv4-mapped
// IPv6 forms of a peer give the same key; peers that differ only by IPv6
// zone do not. The zone table grows by at most one entry per network
// interface the host receives link-local traffic on.
func (s *Server) keyLocked(ap netip.AddrPort, mid uint16, token []byte) dedupKey {
	k := dedupKey{addr: ap.Addr().As16(), port: ap.Port(), mid: mid, tkl: uint8(len(token))}
	copy(k.tok[:], token)
	if zone := ap.Addr().Zone(); zone != "" {
		i := slices.Index(s.zones, zone)
		if i < 0 {
			i = len(s.zones)
			s.zones = append(s.zones, zone)
		}
		k.zone = uint16(i + 1)
	}
	return k
}

// peerLocked renders a key's endpoint as *net.UDPAddr.String does, the
// textual form DedupEntry.Peer has always carried.
func (s *Server) peerLocked(k dedupKey) string {
	a := netip.AddrFrom16(k.addr).Unmap()
	if k.zone > 0 {
		a = a.WithZone(s.zones[k.zone-1])
	}
	return netip.AddrPortFrom(a, k.port).String()
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for jb := range s.queue {
		s.met.queueDepth.Add(-1)
		resp := s.handler(jb.req)
		if resp == nil {
			resp = &Message{Code: CodeNotFound}
		}
		if jb.con {
			// Piggybacked response (RFC 7252 §5.2.1).
			resp.Type = Acknowledgement
		} else {
			resp.Type = NonConfirmable
		}
		resp.MessageID = jb.req.MessageID
		resp.Token = jb.req.Token
		data, err := resp.Marshal()

		s.met.handled.Inc()
		s.mu.Lock()
		if err == nil {
			if e, ok := s.dedup[jb.key]; ok {
				e.resp = data
				s.dedup[jb.key] = e
			}
		}
		s.mu.Unlock()
		if err != nil {
			continue
		}
		s.conn.WriteTo(data, jb.peer) //nolint:errcheck // peer retransmits on loss
	}
}

// DedupEntry is the persisted form of one completed exchange, exported for
// gateway checkpoints so a restarted gateway keeps absorbing retransmissions
// of pre-crash requests instead of double-ingesting them.
type DedupEntry struct {
	Peer      string `json:"peer"`
	MessageID uint16 `json:"mid"`
	Response  []byte `json:"resp"`
	AgeMS     int64  `json:"age_ms"`
}

// ExportDedup snapshots the completed exchanges in the dedup cache,
// oldest first. In-flight exchanges (handler still running) are skipped —
// their effects are not yet in any checkpointed state, so replaying them
// after a restart is exactly once, not twice.
func (s *Server) ExportDedup() []DedupEntry {
	now := time.Since(s.epoch)
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []DedupEntry
	for _, key := range s.order {
		e, ok := s.dedup[key]
		if !ok || e.resp == nil {
			continue
		}
		out = append(out, DedupEntry{
			Peer:      s.peerLocked(key),
			MessageID: key.mid,
			Response:  e.resp,
			AgeMS:     (now - e.born).Milliseconds(),
		})
	}
	return out
}

// RestoreDedup seeds the dedup cache from a checkpoint. Entries whose
// remaining lifetime has already elapsed are skipped, as are entries whose
// peer does not parse or whose response is too short to carry the token
// the key needs (a response echoes its request's token).
func (s *Server) RestoreDedup(entries []DedupEntry) {
	now := time.Since(s.epoch)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, en := range entries {
		age := time.Duration(en.AgeMS) * time.Millisecond
		if age >= s.cfg.ExchangeLifetime {
			continue
		}
		ap, err := netip.ParseAddrPort(en.Peer)
		if err != nil || len(en.Response) < 4 {
			continue
		}
		tkl := int(en.Response[0] & 0x0f)
		if tkl > 8 || len(en.Response) < 4+tkl {
			continue
		}
		key := s.keyLocked(ap, en.MessageID, en.Response[4:4+tkl])
		if _, ok := s.dedup[key]; ok {
			continue
		}
		s.dedup[key] = exchange{resp: en.Response, born: now - age}
		s.order = append(s.order, key)
	}
}

// maxDatagram bounds a UDP datagram (its length field is 16 bits), and so
// any CoAP message either side can receive.
const maxDatagram = 64 * 1024

// Client sends CoAP requests to one server.
type Client struct {
	conn net.Conn
	rng  *rand.Rand
	mu   sync.Mutex // held for a whole exchange; guards nextMID and buf

	// buf receives every datagram of every exchange. It is allocated once
	// and reused: zeroing 64 KiB per exchange would make garbage collection
	// a large share of a busy client's CPU. Reuse is safe because Unmarshal
	// decodes from its own copy of the datagram, so a returned *Message
	// never aliases buf and the next exchange can overwrite it
	// (FuzzMessageUnmarshal checks that property).
	buf []byte

	// nextMID is the Message ID of the next exchange. RFC 7252 §4.4: a
	// random initial value incremented per message, so concurrent or
	// back-to-back exchanges never collide (a fresh random draw per
	// request could).
	nextMID uint16

	// AckTimeout is the initial retransmission timeout (RFC 7252 §4.8:
	// ACK_TIMEOUT, default 2s; the tests shrink it).
	AckTimeout time.Duration
	// MaxRetransmit bounds retransmissions (default 4).
	MaxRetransmit int
}

// Dial connects a client to a server address.
func Dial(addr string) (*Client, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("coap: resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, fmt.Errorf("coap: dial: %w", err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an existing connected datagram conn (which may be a
// fault-injecting wrapper) and takes ownership of it.
func NewClient(conn net.Conn) *Client {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	return &Client{
		conn:          conn,
		rng:           rng,
		nextMID:       uint16(rng.Intn(1 << 16)),
		buf:           make([]byte, maxDatagram),
		AckTimeout:    2 * time.Second,
		MaxRetransmit: 4,
	}
}

// Close releases the client socket.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends a confirmable request and waits for the matching response,
// retransmitting with exponential backoff per RFC 7252 §4.2. A non-zero
// deadline bounds the whole exchange: past it Do fails with an error
// wrapping os.ErrDeadlineExceeded. A zero deadline leaves only the
// retransmission schedule as the bound.
func (c *Client) Do(deadline time.Time, req *Message) (*Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	req.Type = Confirmable
	req.MessageID = c.nextMID
	c.nextMID++
	if len(req.Token) == 0 {
		tok := make([]byte, 4)
		c.rng.Read(tok)
		req.Token = tok
	}
	data, err := req.Marshal()
	if err != nil {
		return nil, err
	}

	timeout := c.AckTimeout
	for attempt := 0; attempt <= c.MaxRetransmit; attempt++ {
		now := time.Now()
		if !deadline.IsZero() && !now.Before(deadline) {
			return nil, fmt.Errorf("coap: exchange deadline passed: %w", os.ErrDeadlineExceeded)
		}
		if _, err := c.conn.Write(data); err != nil {
			return nil, fmt.Errorf("coap: send: %w", err)
		}
		until := now.Add(timeout)
		if !deadline.IsZero() && deadline.Before(until) {
			until = deadline
		}
		if err := c.conn.SetReadDeadline(until); err != nil {
			return nil, err
		}
		for {
			n, err := c.conn.Read(c.buf)
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					break // retransmit
				}
				return nil, fmt.Errorf("coap: recv: %w", err)
			}
			resp, err := Unmarshal(c.buf[:n])
			if err != nil {
				continue // drop malformed
			}
			if !bytes.Equal(resp.Token, req.Token) {
				continue // stale response from an earlier exchange
			}
			if resp.Type == Acknowledgement && resp.MessageID != req.MessageID {
				continue // ACK for a different exchange
			}
			return resp, nil
		}
		timeout *= 2
	}
	return nil, fmt.Errorf("coap: no response after %d attempts", c.MaxRetransmit+1)
}
