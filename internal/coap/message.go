// Package coap implements the subset of CoAP (RFC 7252) that the smart-home
// gateway substrate needs: message encoding/decoding (header, token,
// options, payload), confirmable exchanges with retransmission, and a tiny
// UDP client/server. The paper's testbed runs on IoTivity, whose transport
// is CoAP; device agents POST their readings to the gateway with it.
package coap

import (
	"encoding/binary"
	"fmt"
	"sort"
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

// Path joins the message's Uri-Path options with '/'.
func (m *Message) Path() string {
	out := ""
	for _, o := range m.Options {
		if o.Number == OptionURIPath {
			if out != "" {
				out += "/"
			}
			out += string(o.Value)
		}
	}
	return out
}

// SetPath splits a '/'-separated path into Uri-Path options.
func (m *Message) SetPath(path string) {
	start := 0
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			if i > start {
				m.AddOption(OptionURIPath, []byte(path[start:i]))
			}
			start = i + 1
		}
	}
}

// payloadMarker separates options from payload (RFC 7252 §3).
const payloadMarker = 0xFF

// Marshal encodes the message to its wire form.
func (m *Message) Marshal() ([]byte, error) {
	if len(m.Token) > 8 {
		return nil, fmt.Errorf("coap: token longer than 8 bytes")
	}
	buf := make([]byte, 0, 16+len(m.Payload))
	buf = append(buf, byte(Version<<6)|byte(m.Type)<<4|byte(len(m.Token)))
	buf = append(buf, byte(m.Code))
	buf = binary.BigEndian.AppendUint16(buf, m.MessageID)
	buf = append(buf, m.Token...)

	// Options must be encoded in ascending number order with deltas.
	opts := append([]Option(nil), m.Options...)
	sort.SliceStable(opts, func(i, j int) bool { return opts[i].Number < opts[j].Number })
	prev := uint16(0)
	for _, o := range opts {
		delta := o.Number - prev
		prev = o.Number
		db, dx := optNibble(uint32(delta))
		lb, lx := optNibble(uint32(len(o.Value)))
		buf = append(buf, db<<4|lb)
		buf = append(buf, dx...)
		buf = append(buf, lx...)
		buf = append(buf, o.Value...)
	}
	if len(m.Payload) > 0 {
		buf = append(buf, payloadMarker)
		buf = append(buf, m.Payload...)
	}
	return buf, nil
}

// optNibble encodes an option delta/length into its nibble and extension
// bytes (RFC 7252 §3.1).
func optNibble(v uint32) (byte, []byte) {
	switch {
	case v < 13:
		return byte(v), nil
	case v < 269:
		return 13, []byte{byte(v - 13)}
	default:
		ext := make([]byte, 2)
		binary.BigEndian.PutUint16(ext, uint16(v-269))
		return 14, ext
	}
}

// Unmarshal decodes a wire-form message. The result copies everything it
// keeps out of data, so callers may reuse data as soon as it returns.
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
	pos := 4
	if len(data) < pos+tkl {
		return nil, fmt.Errorf("coap: truncated token")
	}
	m.Token = append([]byte(nil), data[pos:pos+tkl]...)
	pos += tkl

	prev := uint16(0)
	for pos < len(data) {
		if data[pos] == payloadMarker {
			pos++
			if pos == len(data) {
				return nil, fmt.Errorf("coap: payload marker with empty payload")
			}
			m.Payload = append([]byte(nil), data[pos:]...)
			return m, nil
		}
		db := data[pos] >> 4
		lb := data[pos] & 0x0f
		pos++
		delta, n, err := optValue(db, data[pos:])
		if err != nil {
			return nil, err
		}
		pos += n
		length, n, err := optValue(lb, data[pos:])
		if err != nil {
			return nil, err
		}
		pos += n
		if len(data) < pos+int(length) {
			return nil, fmt.Errorf("coap: truncated option value")
		}
		prev += uint16(delta)
		m.Options = append(m.Options, Option{
			Number: prev,
			Value:  append([]byte(nil), data[pos:pos+int(length)]...),
		})
		pos += int(length)
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
