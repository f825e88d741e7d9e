// Package coap implements the subset of CoAP (RFC 7252) that the smart-home
// gateway substrate needs: message encoding/decoding (header, token,
// options, payload), confirmable exchanges with retransmission, and a tiny
// UDP client/server. The paper's testbed runs on IoTivity, whose transport
// is CoAP; device agents POST their readings to the gateway with it.
package coap

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
)

// Version is the only CoAP protocol version (RFC 7252 §3).
const Version = 1

// Type is the CoAP message type.
type Type uint8

// Message types (RFC 7252 §4.2-4.3).
const (
	Confirmable     Type = 0
	NonConfirmable  Type = 1
	Acknowledgement Type = 2
	Reset           Type = 3
)

// String returns the type name.
func (t Type) String() string {
	switch t {
	case Confirmable:
		return "CON"
	case NonConfirmable:
		return "NON"
	case Acknowledgement:
		return "ACK"
	case Reset:
		return "RST"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Code is the CoAP method/response code, packed as 3-bit class + 5-bit
// detail (RFC 7252 §3).
type Code uint8

// Request method and response codes.
const (
	CodeEmpty      Code = 0
	CodeGET        Code = 1
	CodePOST       Code = 2
	CodePUT        Code = 3
	CodeDELETE     Code = 4
	CodeCreated    Code = 2<<5 | 1 // 2.01
	CodeChanged    Code = 2<<5 | 4 // 2.04
	CodeContent    Code = 2<<5 | 5 // 2.05
	CodeBadRequest Code = 4<<5 | 0 // 4.00
	CodeNotFound   Code = 4<<5 | 4 // 4.04
	CodeInternal   Code = 5<<5 | 0 // 5.00
)

// String renders the code in the dotted class.detail notation.
func (c Code) String() string {
	return fmt.Sprintf("%d.%02d", uint8(c)>>5, uint8(c)&0x1f)
}

// Option numbers used by the gateway protocol.
const (
	OptionURIPath       uint16 = 11
	OptionContentFormat uint16 = 12
	OptionURIQuery      uint16 = 15
)

// Option is one CoAP option (number + raw value).
type Option struct {
	Number uint16
	Value  []byte
}

// Message is a CoAP message.
type Message struct {
	Type      Type
	Code      Code
	MessageID uint16
	Token     []byte
	Options   []Option
	Payload   []byte
}

// AddOption appends an option.
func (m *Message) AddOption(number uint16, value []byte) {
	m.Options = append(m.Options, Option{Number: number, Value: value})
}

// Path joins the message's Uri-Path options with '/' in one allocation.
func (m *Message) Path() string {
	n, segs := 0, 0
	for _, o := range m.Options {
		if o.Number == OptionURIPath {
			n += len(o.Value)
			segs++
		}
	}
	if segs == 0 {
		return ""
	}
	var b strings.Builder
	b.Grow(n + segs - 1)
	for _, o := range m.Options {
		if o.Number == OptionURIPath {
			if b.Len() > 0 {
				b.WriteByte('/')
			}
			b.Write(o.Value)
		}
	}
	return b.String()
}

// SetPath splits a '/'-separated path into Uri-Path options. The option
// values share one copy of path, and Options grows at most once.
func (m *Message) SetPath(path string) {
	buf := []byte(path)
	m.Options = slices.Grow(m.Options, strings.Count(path, "/")+1)
	start := 0
	for i := 0; i <= len(buf); i++ {
		if i == len(buf) || buf[i] == '/' {
			if i > start {
				m.AddOption(OptionURIPath, buf[start:i:i])
			}
			start = i + 1
		}
	}
}

// payloadMarker separates options from payload (RFC 7252 §3).
const payloadMarker = 0xFF

// Marshal encodes the message to its wire form in one exact-size
// allocation. Options already in ascending number order, as SetPath and
// Unmarshal leave them, are encoded in place; otherwise a sorted copy is.
func (m *Message) Marshal() ([]byte, error) {
	if len(m.Token) > 8 {
		return nil, fmt.Errorf("coap: token longer than 8 bytes")
	}
	// Options must be encoded in ascending number order with deltas.
	opts := m.Options
	for i := 1; i < len(opts); i++ {
		if opts[i].Number < opts[i-1].Number {
			opts = slices.Clone(opts)
			slices.SortStableFunc(opts, func(a, b Option) int { return cmp.Compare(a.Number, b.Number) })
			break
		}
	}
	size := 4 + len(m.Token)
	prev := uint16(0)
	for _, o := range opts {
		_, _, dn := optNibble(uint32(o.Number - prev))
		_, _, ln := optNibble(uint32(len(o.Value)))
		size += 1 + dn + ln + len(o.Value)
		prev = o.Number
	}
	if len(m.Payload) > 0 {
		size += 1 + len(m.Payload)
	}

	buf := make([]byte, 0, size)
	buf = append(buf, byte(Version<<6)|byte(m.Type)<<4|byte(len(m.Token)))
	buf = append(buf, byte(m.Code))
	buf = binary.BigEndian.AppendUint16(buf, m.MessageID)
	buf = append(buf, m.Token...)
	prev = 0
	for _, o := range opts {
		db, dx, dn := optNibble(uint32(o.Number - prev))
		lb, lx, ln := optNibble(uint32(len(o.Value)))
		prev = o.Number
		buf = append(buf, db<<4|lb)
		buf = append(buf, dx[:dn]...)
		buf = append(buf, lx[:ln]...)
		buf = append(buf, o.Value...)
	}
	if len(m.Payload) > 0 {
		buf = append(buf, payloadMarker)
		buf = append(buf, m.Payload...)
	}
	return buf, nil
}

// optNibble encodes an option delta/length into its nibble and the n
// leading bytes of ext (RFC 7252 §3.1).
func optNibble(v uint32) (nib byte, ext [2]byte, n int) {
	switch {
	case v < 13:
		return byte(v), ext, 0
	case v < 269:
		ext[0] = byte(v - 13)
		return 13, ext, 1
	default:
		binary.BigEndian.PutUint16(ext[:], uint16(v-269))
		return 14, ext, 2
	}
}

// Unmarshal decodes a wire-form message. It copies data once; the token,
// option values and payload are capacity-capped slices of that copy, so the
// result never aliases data (callers reuse their receive buffers as soon as
// it returns) and appending to one field cannot overwrite another.
func Unmarshal(data []byte) (*Message, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("coap: message shorter than header (%d bytes)", len(data))
	}
	if v := data[0] >> 6; v != Version {
		return nil, fmt.Errorf("coap: unsupported version %d", v)
	}
	tkl := int(data[0] & 0x0f)
	if tkl > 8 {
		return nil, fmt.Errorf("coap: token length %d invalid", tkl)
	}
	m := &Message{
		Type:      Type(data[0] >> 4 & 0x3),
		Code:      Code(data[1]),
		MessageID: binary.BigEndian.Uint16(data[2:4]),
	}
	if len(data) < 4+tkl {
		return nil, fmt.Errorf("coap: truncated token")
	}
	if len(data) == 4 {
		return m, nil
	}
	b := append([]byte(nil), data[4:]...)
	if tkl > 0 {
		m.Token = b[:tkl:tkl]
	}
	pos := tkl

	// Options accumulate in a stack buffer, then move to an exact-size
	// slice, so a request with a few options costs one allocation for them.
	var stack [8]Option
	opts := stack[:0]
	prev := uint16(0)
	for pos < len(b) {
		if b[pos] == payloadMarker {
			pos++
			if pos == len(b) {
				return nil, fmt.Errorf("coap: payload marker with empty payload")
			}
			m.Payload = b[pos:len(b):len(b)]
			break
		}
		db := b[pos] >> 4
		lb := b[pos] & 0x0f
		pos++
		delta, n, err := optValue(db, b[pos:])
		if err != nil {
			return nil, err
		}
		pos += n
		length, n, err := optValue(lb, b[pos:])
		if err != nil {
			return nil, err
		}
		pos += n
		if len(b) < pos+int(length) {
			return nil, fmt.Errorf("coap: truncated option value")
		}
		prev += uint16(delta)
		end := pos + int(length)
		opts = append(opts, Option{Number: prev, Value: b[pos:end:end]})
		pos = end
	}
	if len(opts) > 0 {
		m.Options = slices.Clone(opts)
	}
	return m, nil
}

// optValue decodes a nibble plus extension bytes.
func optValue(nib byte, rest []byte) (uint32, int, error) {
	switch nib {
	case 15:
		return 0, 0, fmt.Errorf("coap: reserved option nibble 15")
	case 14:
		if len(rest) < 2 {
			return 0, 0, fmt.Errorf("coap: truncated 2-byte option extension")
		}
		return uint32(binary.BigEndian.Uint16(rest)) + 269, 2, nil
	case 13:
		if len(rest) < 1 {
			return 0, 0, fmt.Errorf("coap: truncated 1-byte option extension")
		}
		return uint32(rest[0]) + 13, 1, nil
	default:
		return uint32(nib), 0, nil
	}
}
