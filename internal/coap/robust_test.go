package coap

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

// rawDial opens a plain UDP socket to the server for hand-crafted
// datagrams (bypassing the client's retransmission machinery).
func rawDial(t *testing.T, srv *Server) *net.UDPConn {
	t.Helper()
	conn, err := net.DialUDP("udp", nil, srv.Addr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func rawExchange(t *testing.T, conn *net.UDPConn, data []byte) []byte {
	t.Helper()
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 64*1024)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), buf[:n]...)
}

func TestServerDedupReplaysCachedAck(t *testing.T) {
	var calls int64
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message {
		atomic.AddInt64(&calls, 1)
		return &Message{Code: CodeChanged, Payload: []byte("done")}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := rawDial(t, srv)

	req := &Message{Type: Confirmable, Code: CodePOST, MessageID: 0x1234, Token: []byte{9}}
	req.SetPath("report")
	data, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	ack1 := rawExchange(t, conn, data)
	// Retransmission of the very same datagram: the handler must not run
	// again, and the replayed ACK must be byte-identical.
	ack2 := rawExchange(t, conn, data)
	if !bytes.Equal(ack1, ack2) {
		t.Errorf("replayed ACK differs:\n first: %x\nsecond: %x", ack1, ack2)
	}
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Errorf("handler ran %d times, want exactly once", got)
	}
	st := srv.Stats()
	if st.Deduped != 1 || st.Handled != 1 || st.Received != 2 {
		t.Errorf("stats = %+v", st)
	}

	resp, err := Unmarshal(ack2)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != Acknowledgement || resp.MessageID != 0x1234 || resp.Code != CodeChanged {
		t.Errorf("replayed ACK = %+v", resp)
	}
}

func TestServerDedupAbsorbsInFlightRetransmission(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	var calls int64
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message {
		atomic.AddInt64(&calls, 1)
		entered <- struct{}{}
		<-release
		return &Message{Code: CodeChanged}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := rawDial(t, srv)

	req := &Message{Type: Confirmable, Code: CodePOST, MessageID: 7, Token: []byte{1}}
	data, _ := req.Marshal()
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	<-entered // the handler is now holding the exchange open
	// A retransmission while the original is in flight must be absorbed
	// silently, not handled a second time.
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	close(release)

	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	buf := make([]byte, 1024)
	if _, err := conn.Read(buf); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&calls); got != 1 {
		t.Errorf("handler ran %d times, want exactly once", got)
	}
}

func TestClientRetransmitOverChaoticLinkExactlyOnce(t *testing.T) {
	var calls int64
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message {
		atomic.AddInt64(&calls, 1)
		return &Message{Code: CodeContent, Payload: req.Payload}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inner, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	link := chaos.WrapConn(inner, chaos.Config{Seed: 11, Drop: 0.35, Dup: 0.2})
	cli := NewClient(link)
	defer cli.Close()
	cli.AckTimeout = 20 * time.Millisecond
	cli.MaxRetransmit = 12

	const exchanges = 8
	for i := 0; i < exchanges; i++ {
		req := &Message{Code: CodePOST, Payload: []byte{byte(i)}}
		req.SetPath("report")
		deadline := time.Now().Add(30 * time.Second)
		resp, err := cli.Do(deadline, req)
		if err != nil {
			t.Fatalf("exchange %d failed: %v", i, err)
		}
		if len(resp.Payload) != 1 || resp.Payload[0] != byte(i) {
			t.Fatalf("exchange %d echoed %x", i, resp.Payload)
		}
	}
	if got := atomic.LoadInt64(&calls); got != exchanges {
		t.Errorf("handler ran %d times for %d exchanges; dedup must absorb every retransmission", got, exchanges)
	}
	if cs := link.Stats(); cs.Dropped == 0 && cs.Dups == 0 {
		t.Error("chaos link injected no faults; test exercised nothing")
	}
}

func TestClientMessageIDsMonotonic(t *testing.T) {
	var mids []uint16
	var mu chan struct{} = make(chan struct{}, 1)
	mu <- struct{}{}
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message {
		<-mu
		mids = append(mids, req.MessageID)
		mu <- struct{}{}
		return &Message{Code: CodeContent}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for i := 0; i < 4; i++ {
		deadline := time.Now().Add(5 * time.Second)
		_, err := cli.Do(deadline, &Message{Code: CodeGET})
		if err != nil {
			t.Fatal(err)
		}
	}
	<-mu
	if len(mids) != 4 {
		t.Fatalf("server saw %d requests", len(mids))
	}
	for i := 1; i < len(mids); i++ {
		if mids[i] != mids[i-1]+1 { // uint16 arithmetic wraps as the RFC wants
			t.Errorf("MessageIDs %v not monotonic per §4.4", mids)
		}
	}
}

func TestServerShedsWhenQueueFull(t *testing.T) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var calls int64
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(conn, func(req *Message) *Message {
		atomic.AddInt64(&calls, 1)
		entered <- struct{}{}
		<-release
		return &Message{Code: CodeChanged}
	}, WithServerConfig(ServerConfig{Workers: 1, QueueDepth: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	raw := rawDial(t, srv)

	send := func(mid uint16) {
		m := &Message{Type: Confirmable, Code: CodePOST, MessageID: mid, Token: []byte{byte(mid)}}
		data, _ := m.Marshal()
		if _, err := raw.Write(data); err != nil {
			t.Fatal(err)
		}
	}
	send(1)
	<-entered // worker busy
	send(2)   // sits in the queue
	// Wait until request 2 is actually queued before overflowing.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Received < 2 {
		if time.Now().After(deadline) {
			t.Fatal("request 2 never received")
		}
		time.Sleep(time.Millisecond)
	}
	send(3) // queue full: shed
	for srv.Stats().Dropped < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("shed never counted: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	// The shed request was forgotten, so its retransmission is handled.
	for atomic.LoadInt64(&calls) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never handled")
		}
		time.Sleep(time.Millisecond)
	}
	send(3)
	for atomic.LoadInt64(&calls) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("retransmission of shed request never handled")
		}
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
}

// TestDedupExportRestoreRoundTrip pins the peer half of the dedup key. The
// cache can no longer be exported and restored; the test keeps its name and
// the address-form checks those had to preserve, now run on keyLocked: an
// IPv4 peer and its IPv4-mapped IPv6 form share a key, while peers that
// differ only by IPv6 zone, or by port, do not.
func TestDedupExportRestoreRoundTrip(t *testing.T) {
	t.Run("address forms", func(t *testing.T) {
		s := &Server{}
		tok := []byte{7, 7}
		key := func(peer *net.UDPAddr) dedupKey {
			t.Helper()
			ap, ok := peerAddrPort(peer)
			if !ok {
				t.Fatalf("peer %v did not parse", peer)
			}
			return s.keyLocked(ap, 42, tok)
		}
		v4 := key(&net.UDPAddr{IP: net.IPv4(192, 0, 2, 7).To4(), Port: 5683})
		if mapped := key(&net.UDPAddr{IP: net.ParseIP("::ffff:192.0.2.7"), Port: 5683}); mapped != v4 {
			t.Error("IPv4-mapped peer keys apart from its IPv4 form")
		}
		if other := key(&net.UDPAddr{IP: net.IPv4(192, 0, 2, 7), Port: 5684}); other == v4 {
			t.Error("peers on different ports share a key")
		}
		eth0 := key(&net.UDPAddr{IP: net.ParseIP("fe80::1"), Port: 5683, Zone: "eth0"})
		eth1 := key(&net.UDPAddr{IP: net.ParseIP("fe80::1"), Port: 5683, Zone: "eth1"})
		bare := key(&net.UDPAddr{IP: net.ParseIP("fe80::1"), Port: 5683})
		if eth0 == eth1 || eth0 == bare || eth1 == bare {
			t.Error("peers that differ only by zone share a key")
		}
		if again := key(&net.UDPAddr{IP: net.ParseIP("fe80::1"), Port: 5683, Zone: "eth0"}); again != eth0 {
			t.Error("the same zoned peer keys differently on its second exchange")
		}
	})
}

// TestDedupKeyAllocFree pins the dedup key: built from a *net.UDPAddr it
// formats no string and allocates nothing.
func TestDedupKeyAllocFree(t *testing.T) {
	s := &Server{}
	tok := []byte{1, 2, 3, 4}
	for _, peer := range []*net.UDPAddr{
		{IP: net.IPv4(127, 0, 0, 1), Port: 5683},
		{IP: net.ParseIP("2001:db8::1"), Port: 5683},
	} {
		n := testing.AllocsPerRun(100, func() {
			ap, _ := peerAddrPort(peer)
			s.mu.Lock()
			s.keyLocked(ap, 7, tok)
			s.mu.Unlock()
		})
		if n != 0 {
			t.Errorf("key for %v: %v allocs, want 0", peer, n)
		}
	}
}

// TestClientMessageIDWrap runs one client past the 16-bit Message ID space
// inside ExchangeLifetime. A reused Message ID with a fresh token is a new
// exchange, not a retransmission: every request reaches the handler and
// none is answered from the cache.
func TestClientMessageIDWrap(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message { return &Message{Code: CodeChanged} })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.AckTimeout = 250 * time.Millisecond

	const exchanges = 70000
	for i := 0; i < exchanges; i++ {
		if _, err := cli.Do(time.Time{}, &Message{Code: CodePOST}); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
	if st := srv.Stats(); st.Handled != exchanges {
		t.Errorf("Handled = %d, want %d (stats %+v)", st.Handled, exchanges, st)
	}
}
