package coap

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	m := &Message{
		Type:      Confirmable,
		Code:      CodePOST,
		MessageID: 0xBEEF,
		Token:     []byte{1, 2, 3, 4},
		Payload:   []byte(`{"v":21.5}`),
	}
	m.SetPath("sensors/temp-kitchen")
	m.AddOption(OptionContentFormat, []byte{50}) // application/json

	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != Confirmable || got.Code != CodePOST || got.MessageID != 0xBEEF {
		t.Errorf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Token, m.Token) {
		t.Errorf("token mismatch: %v", got.Token)
	}
	if got.Path() != "sensors/temp-kitchen" {
		t.Errorf("path = %q", got.Path())
	}
	if !bytes.Equal(got.Payload, m.Payload) {
		t.Errorf("payload mismatch: %q", got.Payload)
	}
}

func TestMarshalNoPayloadNoOptions(t *testing.T) {
	m := &Message{Type: Acknowledgement, Code: CodeEmpty, MessageID: 7}
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4 {
		t.Errorf("empty ACK should be 4 bytes, got %d", len(data))
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.MessageID != 7 || len(got.Options) != 0 || len(got.Payload) != 0 {
		t.Errorf("round trip: %+v", got)
	}
}

func TestLargeOptionNumbersAndValues(t *testing.T) {
	m := &Message{Type: NonConfirmable, Code: CodeGET, MessageID: 1}
	big := bytes.Repeat([]byte{'x'}, 300) // needs 2-byte length extension
	m.AddOption(2000, big)                // needs 2-byte delta extension
	m.AddOption(OptionURIPath, []byte("a"))
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Options) != 2 {
		t.Fatalf("options = %d, want 2", len(got.Options))
	}
	// Options come back sorted by number.
	if got.Options[0].Number != OptionURIPath || got.Options[1].Number != 2000 {
		t.Errorf("option numbers: %d, %d", got.Options[0].Number, got.Options[1].Number)
	}
	// They were encoded from a sorted copy: the message keeps its order.
	if m.Options[0].Number != 2000 {
		t.Error("Marshal reordered the caller's options")
	}
	if !bytes.Equal(got.Options[1].Value, big) {
		t.Error("large option value corrupted")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"short", []byte{0x40}},
		{"bad version", []byte{0x00, 0x01, 0x00, 0x01}},
		{"bad token length", []byte{0x49, 0x01, 0x00, 0x01}},
		{"truncated token", []byte{0x44, 0x01, 0x00, 0x01, 0xAA}},
		{"empty payload after marker", []byte{0x40, 0x01, 0x00, 0x01, 0xFF}},
		{"reserved nibble", []byte{0x40, 0x01, 0x00, 0x01, 0xF0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Unmarshal(tt.data); err == nil {
				t.Errorf("Unmarshal(%x) succeeded", tt.data)
			}
		})
	}
}

func TestMarshalRejectsLongToken(t *testing.T) {
	m := &Message{Token: bytes.Repeat([]byte{1}, 9)}
	if _, err := m.Marshal(); err == nil {
		t.Error("9-byte token accepted")
	}
}

func TestSetPathEdgeCases(t *testing.T) {
	var m Message
	m.SetPath("a/b/c")
	if m.Path() != "a/b/c" {
		t.Errorf("Path = %q", m.Path())
	}
	var m2 Message
	m2.SetPath("/leading//double/")
	if m2.Path() != "leading/double" {
		t.Errorf("Path = %q", m2.Path())
	}
}

func TestCodeStrings(t *testing.T) {
	if CodeGET.String() != "0.01" {
		t.Errorf("GET = %q", CodeGET.String())
	}
	if CodeContent.String() != "2.05" {
		t.Errorf("Content = %q", CodeContent.String())
	}
	if CodeNotFound.String() != "4.04" {
		t.Errorf("NotFound = %q", CodeNotFound.String())
	}
	if Confirmable.String() != "CON" || Reset.String() != "RST" {
		t.Error("type strings")
	}
}

// Property: round trip preserves arbitrary token/payload.
func TestRoundTripProperty(t *testing.T) {
	f := func(tok []byte, payload []byte, id uint16) bool {
		if len(tok) > 8 {
			tok = tok[:8]
		}
		m := &Message{Type: Confirmable, Code: CodePUT, MessageID: id, Token: tok, Payload: payload}
		data, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		if got.MessageID != id || !bytes.Equal(got.Token, tok) {
			return false
		}
		if len(payload) == 0 {
			return len(got.Payload) == 0
		}
		return bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClientServerExchange(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message {
		if req.Path() != "report" {
			return &Message{Code: CodeNotFound}
		}
		return &Message{Code: CodeChanged, Payload: append([]byte("ok:"), req.Payload...)}
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
	cli.AckTimeout = 200 * time.Millisecond

	req := &Message{Code: CodePOST, Payload: []byte("hello")}
	req.SetPath("report")
	deadline := time.Now().Add(5 * time.Second)
	resp, err := cli.Do(deadline, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != CodeChanged {
		t.Errorf("code = %v", resp.Code)
	}
	if string(resp.Payload) != "ok:hello" {
		t.Errorf("payload = %q", resp.Payload)
	}
	if resp.Type != Acknowledgement {
		t.Errorf("type = %v, want piggybacked ACK", resp.Type)
	}

	// Unknown path -> 4.04.
	req2 := &Message{Code: CodeGET}
	req2.SetPath("missing")
	resp2, err := cli.Do(deadline, req2)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Code != CodeNotFound {
		t.Errorf("code = %v, want 4.04", resp2.Code)
	}
}

// echoClient starts a loopback server whose handler answers every request
// with "echo:" plus the request payload, and returns a client dialled to it.
func echoClient(tb testing.TB) *Client {
	tb.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := Serve(conn, func(req *Message) *Message {
		return &Message{Code: CodeChanged, Payload: append([]byte("echo:"), req.Payload...)}
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cli.Close() })
	cli.AckTimeout = time.Second
	return cli
}

func postReading(payload string) *Message {
	req := &Message{Code: CodePOST, Payload: []byte(payload)}
	req.SetPath("report")
	return req
}

// TestClientDoAllocatesLittlePerExchange pins the client's receive buffer:
// it is allocated once per Client, not per exchange. A per-exchange 64 KiB
// buffer would put every exchange far above the bound. The count is
// process-wide, so it also carries the server's small per-request cost.
func TestClientDoAllocatesLittlePerExchange(t *testing.T) {
	cli := echoClient(t)
	req := postReading(`{"at":123456,"v":21.5}`)
	for i := 0; i < 20; i++ { // warm up sockets, timers and the dedup cache
		if _, err := cli.Do(time.Time{}, req); err != nil {
			t.Fatal(err)
		}
	}
	const exchanges = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < exchanges; i++ {
		if _, err := cli.Do(time.Time{}, req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perExchange := (after.TotalAlloc - before.TotalAlloc) / exchanges
	t.Logf("%d heap bytes allocated per exchange", perExchange)
	if perExchange > 8<<10 {
		t.Errorf("%d heap bytes allocated per exchange, want <= %d", perExchange, 8<<10)
	}
}

// TestClientResponsesDoNotAliasReceiveBuffer checks that a response stays
// intact after later exchanges reuse the client's receive buffer, both
// back to back and with goroutines sharing one Client.
func TestClientResponsesDoNotAliasReceiveBuffer(t *testing.T) {
	cli := echoClient(t)

	first := postReading("first")
	first.Token = []byte{1, 1, 1, 1}
	resp1, err := cli.Do(time.Time{}, first)
	if err != nil {
		t.Fatal(err)
	}
	want, err := resp1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	second := postReading("SECOND")
	second.Token = []byte{2, 2, 2, 2}
	resp2, err := cli.Do(time.Time{}, second)
	if err != nil {
		t.Fatal(err)
	}
	got, err := resp1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("first response changed after the second exchange:\n got %x\nwant %x", got, want)
	}
	if string(resp1.Payload) != "echo:first" || !bytes.Equal(resp1.Token, first.Token) {
		t.Errorf("first response = %q token %x", resp1.Payload, resp1.Token)
	}
	if string(resp2.Payload) != "echo:SECOND" || !bytes.Equal(resp2.Token, second.Token) {
		t.Errorf("second response = %q token %x", resp2.Payload, resp2.Token)
	}

	const goroutines, rounds = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held []*Message
			for r := 0; r < rounds; r++ {
				resp, err := cli.Do(time.Time{}, postReading(fmt.Sprintf("g%d-r%d", g, r)))
				if err != nil {
					errs <- err
					return
				}
				held = append(held, resp)
			}
			for r, resp := range held {
				if want := fmt.Sprintf("echo:g%d-r%d", g, r); string(resp.Payload) != want {
					errs <- fmt.Errorf("goroutine %d round %d: payload %q, want %q", g, r, resp.Payload, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// silentAddr binds a UDP socket that never answers, so an exchange with
// it runs out its timers instead of failing at once on an ICMP
// port-unreachable, as a closed port would.
func silentAddr(t *testing.T) string {
	t.Helper()
	silent, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { silent.Close() })
	return silent.LocalAddr().String()
}

func TestClientTimesOutWithoutServer(t *testing.T) {
	cli, err := Dial(silentAddr(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.AckTimeout = 20 * time.Millisecond
	cli.MaxRetransmit = 1

	req := &Message{Code: CodePOST}
	_, err = cli.Do(time.Now().Add(2*time.Second), req)
	if err == nil || !strings.Contains(err.Error(), "no response after 2 attempts") {
		t.Errorf("Do = %v, want the retransmission schedule to run out", err)
	}
}

// TestClientHonorsDeadline talks to a peer that never answers: the
// exchange deadline, not the 10s retransmission timeout, ends Do.
func TestClientHonorsDeadline(t *testing.T) {
	cli, err := Dial(silentAddr(t))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.AckTimeout = 10 * time.Second

	start := time.Now()
	_, err = cli.Do(start.Add(50*time.Millisecond), &Message{Code: CodeGET})
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Do = %v, want os.ErrDeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("exchange deadline not honored")
	}
}

func TestServerSurvivesMalformedDatagram(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", func(req *Message) *Message {
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
	cli.AckTimeout = 200 * time.Millisecond

	// Throw garbage at the server first.
	garbage, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer garbage.Close()
	if _, err := garbageConnWrite(garbage, []byte{0xde, 0xad}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	resp, err := cli.Do(deadline, &Message{Code: CodeGET})
	if err != nil {
		t.Fatalf("server died after malformed datagram: %v", err)
	}
	if resp.Code != CodeContent {
		t.Errorf("code = %v", resp.Code)
	}
}

func garbageConnWrite(c *Client, data []byte) (int, error) {
	return c.conn.Write(data)
}

// TestMessageCodecAllocs pins the per-message cost of the codec: Marshal
// of ascending options is one exact-size buffer, Unmarshal is the message,
// one copy of the datagram and the option slice, Path is the joined string.
func TestMessageCodecAllocs(t *testing.T) {
	m := &Message{Type: Confirmable, Code: CodePOST, MessageID: 1, Token: []byte{1, 2, 3, 4}}
	m.SetPath("report/home-07")
	m.AddOption(OptionContentFormat, []byte{42})
	m.Payload = []byte(`{"at":123456,"v":21.5}`)
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != cap(data) {
		t.Errorf("Marshal buffer len %d cap %d, want an exact-size allocation", len(data), cap(data))
	}
	if n := testing.AllocsPerRun(100, func() { m.Marshal() }); n != 1 { //nolint:errcheck
		t.Errorf("Marshal: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { Unmarshal(data) }); n > 3 { //nolint:errcheck
		t.Errorf("Unmarshal: %v allocs, want <= 3", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.Path() }); n != 1 {
		t.Errorf("Path: %v allocs, want 1", n)
	}
}

// TestUnmarshalFieldsDoNotOverlap appends to a decoded token and option
// value: the field slices share one backing copy, so each must be capped
// at its own length or the append would overwrite its neighbour.
func TestUnmarshalFieldsDoNotOverlap(t *testing.T) {
	m := &Message{Type: Confirmable, Code: CodePOST, Token: []byte{1, 2}, Payload: []byte("pay")}
	m.SetPath("a/b")
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got.Token, 0xEE, 0xEE, 0xEE)
	_ = append(got.Options[0].Value, 'X', 'X')
	if got.Path() != "a/b" || string(got.Payload) != "pay" {
		t.Errorf("appending to decoded fields corrupted the message: path %q payload %q", got.Path(), got.Payload)
	}
}

func BenchmarkMarshal(b *testing.B) {
	m := &Message{Type: Confirmable, Code: CodePOST, MessageID: 1, Token: []byte{1, 2}}
	m.SetPath("sensors/temp")
	m.Payload = []byte(`{"at":123456,"v":21.5}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	m := &Message{Type: Confirmable, Code: CodePOST, MessageID: 1, Token: []byte{1, 2}}
	m.SetPath("sensors/temp")
	m.Payload = []byte(`{"at":123456,"v":21.5}`)
	data, err := m.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClientDo(b *testing.B) {
	cli := echoClient(b)
	req := postReading(`{"at":123456,"v":21.5}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Do(time.Time{}, req); err != nil {
			b.Fatal(err)
		}
	}
}
