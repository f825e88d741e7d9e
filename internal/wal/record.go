package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/event"
)

// Kind discriminates WAL record payloads.
type Kind uint8

const (
	// KindIngest is one device event fed to Gateway.Ingest.
	KindIngest Kind = 1
	// KindAdvance is a stream-clock advance fed to Gateway.AdvanceTo.
	KindAdvance Kind = 2
)

func (k Kind) String() string {
	switch k {
	case KindIngest:
		return "ingest"
	case KindAdvance:
		return "advance"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one gateway op in its WAL form. Ingest records carry the full
// event; advance records carry only the target stream time in At.
type Record struct {
	Kind   Kind
	At     time.Duration
	Device device.ID
	Value  float64
}

// recordSize is the fixed encoded payload size: kind + at + device + value.
const recordSize = 1 + 8 + 4 + 8

// RecordSize is recordSize for callers that pre-size encode buffers.
const RecordSize = recordSize

// IngestRecord wraps an event for the log.
func IngestRecord(e event.Event) Record {
	return Record{Kind: KindIngest, At: e.At, Device: e.Device, Value: e.Value}
}

// AdvanceRecord wraps a stream-clock advance for the log.
func AdvanceRecord(t time.Duration) Record {
	return Record{Kind: KindAdvance, At: t}
}

// Event converts an ingest record back to the event it logged.
func (r Record) Event() event.Event {
	return event.Event{At: r.At, Device: r.Device, Value: r.Value}
}

// AppendTo encodes the record onto buf (reusing its capacity) and returns
// the extended slice, so a caller that reuses buf appends with zero
// steady-state allocations.
func (r Record) AppendTo(buf []byte) []byte {
	var b [recordSize]byte
	r.put(b[:])
	return append(buf, b[:]...)
}

// put encodes the record into b[:recordSize].
func (r Record) put(b []byte) {
	_ = b[recordSize-1]
	b[0] = byte(r.Kind)
	binary.LittleEndian.PutUint64(b[1:9], uint64(r.At))
	binary.LittleEndian.PutUint32(b[9:13], uint32(int32(r.Device)))
	binary.LittleEndian.PutUint64(b[13:21], math.Float64bits(r.Value))
}

// DecodeRecord parses a payload written by AppendTo.
func DecodeRecord(payload []byte) (Record, error) {
	if len(payload) != recordSize {
		return Record{}, fmt.Errorf("wal: record payload %d bytes, want %d", len(payload), recordSize)
	}
	r := Record{
		Kind:   Kind(payload[0]),
		At:     time.Duration(binary.LittleEndian.Uint64(payload[1:9])),
		Device: device.ID(int32(binary.LittleEndian.Uint32(payload[9:13]))),
		Value:  math.Float64frombits(binary.LittleEndian.Uint64(payload[13:21])),
	}
	if r.Kind != KindIngest && r.Kind != KindAdvance {
		return Record{}, fmt.Errorf("wal: unknown record kind %d", payload[0])
	}
	return r, nil
}

// DeadLetterEntry is one captured poison op: the record that made its
// handler panic, the panic value, and where it happened. Entries are
// appended as JSON lines so the file is greppable and tail-able.
type DeadLetterEntry struct {
	Home     string  `json:"home,omitempty"`
	Seq      uint64  `json:"seq,omitempty"`
	Kind     string  `json:"kind"`
	AtMS     int64   `json:"at_ms"`
	Device   int     `json:"device,omitempty"`
	Value    float64 `json:"value,omitempty"`
	Panic    string  `json:"panic"`
	Stack    string  `json:"stack,omitempty"`
	SavedAt  string  `json:"saved_at"`
	Replayed bool    `json:"replayed,omitempty"`
}

// DeadLetter appends poison ops to a JSONL file. The zero value and a nil
// pointer discard records, so call sites need no guards.
type DeadLetter struct {
	mu   sync.Mutex
	path string
}

// OpenDeadLetter returns a dead-letter sink appending to path. The file is
// created lazily on the first record, so a healthy gateway leaves nothing
// behind.
func OpenDeadLetter(path string) *DeadLetter {
	return &DeadLetter{path: path}
}

// Path returns the sink's file path ("" for a discarding sink).
func (d *DeadLetter) Path() string {
	if d == nil {
		return ""
	}
	return d.path
}

// Record appends one entry, stamping the wall-clock save time. Errors are
// returned but callers on panic paths may reasonably ignore them — the
// dead-letter file is forensics, not state.
func (d *DeadLetter) Record(e DeadLetterEntry) error {
	if d == nil || d.path == "" {
		return nil
	}
	e.SavedAt = time.Now().UTC().Format(time.RFC3339Nano)
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	f, err := os.OpenFile(d.path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(append(data, '\n')); err != nil {
		return err
	}
	return f.Sync()
}

// Entry builds a dead-letter entry from a record and panic context.
func Entry(home string, seq uint64, r Record, panicVal any, stack []byte, replayed bool) DeadLetterEntry {
	return DeadLetterEntry{
		Home:     home,
		Seq:      seq,
		Kind:     r.Kind.String(),
		AtMS:     r.At.Milliseconds(),
		Device:   int(r.Device),
		Value:    r.Value,
		Panic:    fmt.Sprint(panicVal),
		Stack:    string(stack),
		Replayed: replayed,
	}
}
