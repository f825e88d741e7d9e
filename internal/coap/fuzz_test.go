package coap

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzMessageUnmarshal throws arbitrary datagrams at the CoAP decoder. The
// decoder must never panic, a message it accepts must not change when its
// input is overwritten, and it must survive a
// re-encode/re-decode cycle unchanged once normalized: Unmarshal(data) →
// Marshal → Unmarshal must be a fixed point (option deltas can wrap the
// 16-bit number space on hostile input, so the first decode is the
// normalization, not an identity).
func FuzzMessageUnmarshal(f *testing.F) {
	req := &Message{Type: Confirmable, Code: CodePOST, MessageID: 7, Token: []byte{0xde, 0xad}}
	req.SetPath("report/home-07")
	req.Payload = []byte(`[{"at":1000,"d":3,"v":21.5}]`)
	seed, err := req.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	ack := &Message{Type: Acknowledgement, Code: CodeChanged, MessageID: 7, Token: []byte{0xde, 0xad}}
	ackSeed, err := ack.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ackSeed)
	f.Add([]byte{})
	f.Add([]byte{0x40, 0x01, 0x00, 0x01})       // minimal GET
	f.Add([]byte{0x40, 0x01, 0x00, 0x01, 0xff}) // marker, no payload
	f.Add([]byte("DWB1 not coap at all, just bytes"))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		m, err := Unmarshal(in)
		if err != nil {
			return
		}
		// The decoded message must not alias its input: callers reuse
		// their receive buffers as soon as Unmarshal returns.
		for i := range in {
			in[i] ^= 0xff
		}
		if fresh, err := Unmarshal(data); err != nil || !reflect.DeepEqual(m, fresh) {
			t.Fatalf("decoded message changed when its input was overwritten:\n got %+v\nwant %+v (%v)", m, fresh, err)
		}
		enc, err := m.Marshal()
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		m2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		enc2, err := m2.Marshal()
		if err != nil {
			t.Fatalf("normalized message failed to re-encode: %v", err)
		}
		m3, err := Unmarshal(enc2)
		if err != nil {
			t.Fatalf("normalized bytes failed to decode: %v", err)
		}
		if !reflect.DeepEqual(m2, m3) {
			t.Fatalf("encode/decode not a fixed point:\n m2=%+v\n m3=%+v", m2, m3)
		}
	})
}
