// Package wire is the binary batch encoding (DWB1) devices use to report
// over CoAP. It is a length-prefixed fixed-record layout that decodes
// straight into reused event buffers, so a clean batch costs zero
// allocations between the UDP socket and the window builder.
//
// Layout (all integers little-endian):
//
//	header   "DWB1" | version:1 | kind:1 | count:4
//	body     kind=report  → count × [at_ns:8 | device:4 | value:8]
//	         kind=advance → at_ns:8 (count must be 0)
//	trailer  crc32c(header+body):4
//
// The CRC is Castagnoli, the same polynomial the WAL frames with, so a
// corrupted datagram that slips past UDP's weak checksum still fails
// closed. Payload length must match the count exactly: trailing garbage
// is rejected, and no truncated batch decodes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/event"
)

// Version is the current wire format version. Decoders reject any other.
const Version = 1

// Kind discriminates batch payloads, mirroring wal.Kind's values.
type Kind uint8

const (
	// KindReport is a batch of device readings for /report.
	KindReport Kind = 1
	// KindAdvance is a stream-clock advance for /advance.
	KindAdvance Kind = 2
)

// magic opens every batch.
var magic = [4]byte{'D', 'W', 'B', '1'}

const (
	headerSize  = 4 + 1 + 1 + 4 // magic + version + kind + count
	trailerSize = 4             // crc32c
	// RecordSize is one fixed-width event record: at + device + value.
	RecordSize = 8 + 4 + 8
	// MaxBatch bounds the record count a decoder will accept. A CoAP
	// datagram tops out well below this; the cap keeps a hostile header
	// from growing pooled buffers without bound.
	MaxBatch = 1 << 16
)

// ErrMalformed marks any payload DecodeBatch rejects — wrong magic,
// unsupported version, bad CRC, length/count mismatch. Fronts map it to a
// stable reason code rather than echoing the detail to remote peers.
var ErrMalformed = errors.New("wire: malformed batch")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendHeader writes the fixed header onto buf.
func appendHeader(buf []byte, kind Kind, count int) []byte {
	var h [headerSize]byte
	copy(h[:4], magic[:])
	h[4] = Version
	h[5] = byte(kind)
	binary.LittleEndian.PutUint32(h[6:10], uint32(count))
	return append(buf, h[:]...)
}

// appendTrailer seals the batch with the CRC over everything before it.
func appendTrailer(buf []byte) []byte {
	var t [trailerSize]byte
	binary.LittleEndian.PutUint32(t[:], crc32.Checksum(buf, castagnoli))
	return append(buf, t[:]...)
}

// AppendReport encodes evts as one report batch onto buf (reusing its
// capacity) and returns the extended slice. Encoding is zero-alloc once
// buf has grown to steady-state size.
func AppendReport(buf []byte, evts []event.Event) []byte {
	buf = appendHeader(buf, KindReport, len(evts))
	var rec [RecordSize]byte
	for _, e := range evts {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(e.At))
		binary.LittleEndian.PutUint32(rec[8:12], uint32(int32(e.Device)))
		binary.LittleEndian.PutUint64(rec[12:20], math.Float64bits(e.Value))
		buf = append(buf, rec[:]...)
	}
	return appendTrailer(buf)
}

// AppendAdvance encodes a stream-clock advance onto buf.
func AppendAdvance(buf []byte, at time.Duration) []byte {
	buf = appendHeader(buf, KindAdvance, 0)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(at))
	buf = append(buf, b[:]...)
	return appendTrailer(buf)
}

// Batch is one decoded payload. Events aliases the scratch slice passed
// to DecodeBatch, so it is valid until the caller reuses (or returns)
// that buffer.
type Batch struct {
	Kind   Kind
	At     time.Duration // advance target (KindAdvance only)
	Events []event.Event // decoded readings (KindReport only)
}

// DecodeBatch parses a payload written by AppendReport/AppendAdvance,
// decoding report records into scratch (capacity reused, length reset).
// The returned Batch's Events is the grown scratch slice; pass it back
// on the next call — or via PutEvents — to keep the path allocation-free.
func DecodeBatch(payload []byte, scratch []event.Event) (Batch, error) {
	if len(payload) < len(magic) || [4]byte(payload[:4]) != magic {
		return Batch{}, fmt.Errorf("%w: missing magic", ErrMalformed)
	}
	if len(payload) < headerSize+trailerSize {
		return Batch{}, fmt.Errorf("%w: %d bytes is shorter than an empty batch", ErrMalformed, len(payload))
	}
	if v := payload[4]; v != Version {
		return Batch{}, fmt.Errorf("%w: version %d, want %d", ErrMalformed, v, Version)
	}
	kind := Kind(payload[5])
	count := binary.LittleEndian.Uint32(payload[6:10])
	body := payload[:len(payload)-trailerSize]
	want := binary.LittleEndian.Uint32(payload[len(payload)-trailerSize:])
	if crc32.Checksum(body, castagnoli) != want {
		return Batch{}, fmt.Errorf("%w: CRC mismatch", ErrMalformed)
	}
	switch kind {
	case KindReport:
		if count > MaxBatch {
			return Batch{}, fmt.Errorf("%w: %d records exceeds limit %d", ErrMalformed, count, MaxBatch)
		}
		if got, need := len(body)-headerSize, int(count)*RecordSize; got != need {
			return Batch{}, fmt.Errorf("%w: %d body bytes for %d records", ErrMalformed, got, count)
		}
		out := scratch[:0]
		for off := headerSize; off < len(body); off += RecordSize {
			rec := body[off : off+RecordSize]
			out = append(out, event.Event{
				At:     time.Duration(binary.LittleEndian.Uint64(rec[0:8])),
				Device: device.ID(int32(binary.LittleEndian.Uint32(rec[8:12]))),
				Value:  math.Float64frombits(binary.LittleEndian.Uint64(rec[12:20])),
			})
		}
		return Batch{Kind: KindReport, Events: out}, nil
	case KindAdvance:
		if count != 0 {
			return Batch{}, fmt.Errorf("%w: advance batch claims %d records", ErrMalformed, count)
		}
		if len(body)-headerSize != 8 {
			return Batch{}, fmt.Errorf("%w: advance body %d bytes, want 8", ErrMalformed, len(body)-headerSize)
		}
		return Batch{
			Kind:   KindAdvance,
			At:     time.Duration(binary.LittleEndian.Uint64(body[headerSize : headerSize+8])),
			Events: scratch[:0],
		}, nil
	default:
		return Batch{}, fmt.Errorf("%w: unknown kind %d", ErrMalformed, kind)
	}
}

// eventsPool recycles decode scratch across requests. Slices start at a
// typical agent batch and grow to the largest batch a peer sends; MaxBatch
// bounds that growth.
var eventsPool = sync.Pool{
	New: func() any {
		s := make([]event.Event, 0, 64)
		return &s
	},
}

// GetEvents leases a decode scratch slice from the pool.
func GetEvents() *[]event.Event {
	return eventsPool.Get().(*[]event.Event)
}

// PutEvents returns a scratch slice (as grown by DecodeBatch) to the
// pool. The caller must not touch the slice afterwards.
func PutEvents(s *[]event.Event) {
	*s = (*s)[:0]
	eventsPool.Put(s)
}
