// Package wal is a segmented, CRC-framed, append-only write-ahead log for
// gateway ops. Every ingested event (and stream-clock advance) is logged
// before it mutates detector state, so a process that dies between
// checkpoints can replay the tail and recover losslessly: the checkpoint
// carries the sequence number of the last op it covers, replay skips
// everything at or below it, and the stitched run is bit-identical to one
// that never crashed.
//
// On-disk layout: a directory of segment files named by the first sequence
// number they hold (%016x.wal). Each segment starts with an 8-byte magic
// (DICEWAL2) + 8-byte first-seq header, followed by frames. One AppendBatch
// writes one frame (more only when its records overflow maxFrameBody), and
// a frame packs its records behind varint lengths. AppendEvents is the
// ingest entry point: it writes the same frames as AppendBatch of the
// events' ingest records, encoding each record in place in the frame.
//
//	[firstSeq:8][bodyLen:4][crc:4][body:bodyLen]   body = n × [uvarint len][payload]
//
// Record i of a frame has sequence number firstSeq+i. The CRC (Castagnoli)
// covers firstSeq, bodyLen and body, so a torn tail, a truncated length
// field, or a bit flip all fail closed, and a frame whose body does not
// parse exactly into records yields nothing. A torn or corrupt frame ends
// replay at the last good frame — exactly the prefix that was durably
// applied — and the log self-repairs by truncating the garbage so the next
// append continues a clean chain. A crash mid-batch therefore loses the
// whole batch, never part of it.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/event"
	"repro/internal/telemetry"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// ErrLegacyFormat is returned by Open for a segment written in the
// retired DICEWAL1 layout (one frame per record). Its frames would pass
// the current CRC check but parse as garbage, so the log refuses it rather
// than replay it; no reader for the old layout exists.
var ErrLegacyFormat = errors.New("wal: segment uses the retired DICEWAL1 format")

var (
	segMagic    = [8]byte{'D', 'I', 'C', 'E', 'W', 'A', 'L', '2'}
	legacyMagic = [8]byte{'D', 'I', 'C', 'E', 'W', 'A', 'L', '1'}
)

const (
	segHeaderSize = 16 // magic + first seq
	frameHeader   = 16 // first seq + body len + crc
	maxRecordSize = 1 << 20
	// maxFrameBody bounds a frame's body: one record of maximum size and
	// its length prefix still fit, so the scanner never buffers more.
	maxFrameBody   = maxRecordSize + binary.MaxVarintLen32
	defaultSegSize = 512 << 10
	defaultBatch   = 64
	// scanBufSize is the read buffer scanSegment puts in front of a
	// segment file, so a scan costs one read syscall per 64 KiB instead
	// of two per frame.
	scanBufSize = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy controls when appends reach stable storage.
type SyncPolicy int

const (
	// SyncBatch fsyncs every Options.BatchEvery appends (and on rotation
	// and Close): bounded loss, amortized flush cost. The zero value,
	// because it is the default.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every append: nothing acknowledged is ever
	// lost, at the cost of one disk flush per op.
	SyncAlways
	// SyncNever leaves flushing to the OS except on rotation and Close:
	// fastest, loses the page-cache tail on power failure (a clean process
	// kill loses nothing — the kernel still has the writes).
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncNever:
		return "never"
	default:
		return "unknown"
	}
}

// ParseSyncPolicy maps the -fsync flag values onto policies.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "batch", "":
		return SyncBatch, nil
	case "never", "none":
		return SyncNever, nil
	default:
		return SyncBatch, fmt.Errorf("wal: unknown fsync policy %q (want always|batch|never)", s)
	}
}

// Options configures a log at Open.
type Options struct {
	// Sync is the fsync policy (default SyncBatch).
	Sync SyncPolicy
	// SegmentSize rotates the active segment once it exceeds this many
	// bytes (default 512 KiB). Rotation bounds what a checkpoint can
	// truncate and keeps any one replay file small.
	SegmentSize int64
	// BatchEvery is the append count between fsyncs under SyncBatch
	// (default 64).
	BatchEvery int
	// Telemetry registers the dice_wal_* instruments; nil leaves the log
	// uninstrumented (all instruments are nil-safe).
	Telemetry *telemetry.Registry
}

// WAL metric names.
const (
	metricAppends   = "dice_wal_appends_total"
	metricBytes     = "dice_wal_append_bytes_total"
	metricSyncs     = "dice_wal_syncs_total"
	metricRotations = "dice_wal_rotations_total"
	metricSegments  = "dice_wal_segments"
	metricTruncated = "dice_wal_truncated_segments_total"
	metricReplayed  = "dice_wal_replayed_records_total"
	metricCorrupt   = "dice_wal_corrupt_records_total"
)

type metrics struct {
	appends   *telemetry.Counter
	bytes     *telemetry.Counter
	syncs     *telemetry.Counter
	rotations *telemetry.Counter
	segments  *telemetry.Gauge
	truncated *telemetry.Counter
	replayed  *telemetry.Counter
	corrupt   *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry) metrics {
	if reg == nil {
		return metrics{}
	}
	return metrics{
		appends:   reg.Counter(metricAppends, "Records appended to the WAL."),
		bytes:     reg.Counter(metricBytes, "Bytes appended to the WAL (frames included)."),
		syncs:     reg.Counter(metricSyncs, "fsync calls issued by the WAL."),
		rotations: reg.Counter(metricRotations, "Segment rotations."),
		segments:  reg.Gauge(metricSegments, "Segment files currently on disk."),
		truncated: reg.Counter(metricTruncated, "Segments deleted after a covering checkpoint."),
		replayed:  reg.Counter(metricReplayed, "Records applied during replay."),
		corrupt:   reg.Counter(metricCorrupt, "Torn or corrupt records discarded at open/replay."),
	}
}

// segment is one on-disk file: its path, the first sequence it holds, and
// its current byte size.
type segment struct {
	path     string
	firstSeq uint64
	size     int64
}

// Log is a segmented append-only WAL. All methods are safe for concurrent
// use; appends are serialized internally so record order on disk is the
// order Append returns in.
type Log struct {
	mu       sync.Mutex
	dir      string
	opts     Options
	segs     []segment // sorted by firstSeq; last is active
	active   *os.File
	seq      uint64 // last assigned sequence number (0 = empty log)
	unsynced int
	closed   bool
	met      metrics
	scratch  []byte
}

// Open opens (or creates) the log in dir, validating segment headers and
// repairing a torn tail: the active segment is scanned frame by frame and
// truncated at the first frame that fails its checks, so a crash mid-
// append never poisons the chain. A tail segment whose header a crash cut
// short gets its header rewritten (see repairTornHeader). A DICEWAL1
// segment fails Open with ErrLegacyFormat.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = defaultSegSize
	}
	if opts.BatchEvery <= 0 {
		opts.BatchEvery = defaultBatch
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	l := &Log{dir: dir, opts: opts, met: newMetrics(opts.Telemetry)}
	if err := l.scan(); err != nil {
		return nil, err
	}
	l.met.segments.Set(int64(len(l.segs)))
	return l, nil
}

// scan discovers segments, validates headers, and repairs the tail.
func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: readdir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 16, 64)
		if err != nil {
			continue // foreign file; leave it alone
		}
		info, err := e.Info()
		if err != nil {
			return fmt.Errorf("wal: stat %s: %w", name, err)
		}
		l.segs = append(l.segs, segment{path: filepath.Join(l.dir, name), firstSeq: first, size: info.Size()})
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].firstSeq < l.segs[j].firstSeq })
	if len(l.segs) == 0 {
		return nil
	}
	// Validate every header cheaply; fully scan only the active (last)
	// segment to find the durable tail and repair torn bytes.
	tail := &l.segs[len(l.segs)-1]
	for i := range l.segs {
		s := &l.segs[i]
		if s == tail && s.size < segHeaderSize {
			if err := l.repairTornHeader(s); err != nil {
				return err
			}
		}
		if err := l.checkHeader(s); err != nil {
			return err
		}
	}
	last, goodSize, err := l.scanSegment(tail, 0, nil)
	if err != nil {
		return err
	}
	if goodSize < tail.size {
		l.met.corrupt.Inc()
		if err := os.Truncate(tail.path, goodSize); err != nil {
			return fmt.Errorf("wal: repair %s: %w", tail.path, err)
		}
		tail.size = goodSize
	}
	if last == 0 {
		// Empty tail segment: its first record will be firstSeq, so the
		// last assigned seq is one below.
		l.seq = tail.firstSeq - 1
	} else {
		l.seq = last
	}
	return nil
}

// repairTornHeader rewrites the header of a tail segment shorter than one,
// which a crash between newSegmentLocked's create and its header write
// leaves behind. The file holds no records, so the rewrite loses nothing —
// but only when its name continues the chain: the previous segment's last
// record is the one just below it. Any other short file is left for
// checkHeader to reject.
func (l *Log) repairTornHeader(tail *segment) error {
	if n := len(l.segs); n > 1 {
		prev := &l.segs[n-2]
		last, _, err := l.scanSegment(prev, 0, nil)
		if err != nil {
			return err
		}
		if last == 0 {
			last = prev.firstSeq - 1
		}
		if last+1 != tail.firstSeq {
			return nil
		}
	}
	f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_TRUNC, 0)
	if err == nil {
		hdr := segmentHeader(tail.firstSeq)
		if _, err = f.Write(hdr[:]); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("wal: repair header %s: %w", tail.path, err)
	}
	tail.size = segHeaderSize
	l.met.corrupt.Inc()
	// The crash also skipped newSegmentLocked's directory sync, and records
	// appended here are only as durable as the file's name.
	return SyncDir(l.dir)
}

// segmentHeader is the header of the segment whose first record is firstSeq.
func segmentHeader(firstSeq uint64) [segHeaderSize]byte {
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], firstSeq)
	return hdr
}

func (l *Log) checkHeader(s *segment) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fmt.Errorf("wal: %s: short header: %w", s.path, err)
	}
	switch [8]byte(hdr[:8]) {
	case segMagic:
	case legacyMagic:
		return fmt.Errorf("wal: %s: %w", s.path, ErrLegacyFormat)
	default:
		return fmt.Errorf("wal: %s: bad magic %q", s.path, hdr[:8])
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != s.firstSeq {
		return fmt.Errorf("wal: %s: header first seq %d does not match name", s.path, got)
	}
	return nil
}

// scanSegment walks one segment's frames, calling fn (when non-nil) for
// each record of every valid frame with a sequence number greater than
// after, and returns the last valid seq seen (0 if none) plus the byte
// offset just past its frame. A short frame, a sequence discontinuity, an
// out-of-range body length, a CRC mismatch or a body that does not parse
// exactly into records ends the scan without error: everything after the
// last good frame is garbage by definition of an append-only log.
func (l *Log) scanSegment(s *segment, after uint64, fn func(seq uint64, payload []byte) error) (uint64, int64, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	if _, err := f.Seek(segHeaderSize, io.SeekStart); err != nil {
		return 0, 0, err
	}
	r := bufio.NewReaderSize(f, scanBufSize)
	var (
		hdr  [frameHeader]byte
		body []byte
		recs [][]byte // body's payloads, parsed whole before any is passed on
		last uint64
		off  = int64(segHeaderSize)
		want = s.firstSeq
	)
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return last, off, nil // clean EOF or torn header: stop at last good
		}
		n := binary.LittleEndian.Uint32(hdr[8:12])
		if binary.LittleEndian.Uint64(hdr[0:8]) != want || n == 0 || n > maxFrameBody {
			return last, off, nil
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return last, off, nil
		}
		sum := crc32.Update(0, castagnoli, hdr[0:12])
		if crc32.Update(sum, castagnoli, body) != binary.LittleEndian.Uint32(hdr[12:16]) {
			return last, off, nil
		}
		var ok bool
		if recs, ok = splitRecords(recs[:0], body); !ok {
			return last, off, nil
		}
		for i, p := range recs {
			if seq := want + uint64(i); fn != nil && seq > after {
				if err := fn(seq, p); err != nil {
					return last, off, err
				}
			}
		}
		last = want + uint64(len(recs)) - 1
		off += int64(frameHeader) + int64(n)
		want = last + 1
	}
}

// splitRecords appends the payloads packed in a frame body to recs. It
// reports false when the body does not parse exactly into records: a
// malformed or oversized length, or one running past the body's end.
func splitRecords(recs [][]byte, body []byte) ([][]byte, bool) {
	for len(body) > 0 {
		n, k := binary.Uvarint(body)
		if k <= 0 || n > maxRecordSize || n > uint64(len(body)-k) {
			return recs, false
		}
		end := k + int(n)
		recs = append(recs, body[k:end])
		body = body[end:]
	}
	return recs, true
}

// LastSeq returns the sequence number of the last appended record (0 for
// an empty log).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Segments returns the number of segment files on disk.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Append logs payload as a frame of one record, writes it to the active
// segment, applies the sync policy, and returns the record's sequence
// number: a batch of one. The payload is copied before Append returns; the
// caller may reuse its buffer.
func (l *Log) Append(payload []byte) (uint64, error) {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch logs every payload as its own record, packed into one frame
// (more only when the records overflow maxFrameBody) under one header and
// one CRC, written with one file write before it returns; the sync policy
// applies once at the end, so fsync cost amortizes across the batch
// (SyncAlways: one flush per batch instead of per record; SyncBatch: the
// unsynced count advances by the batch size). It returns the sequence
// number of the last record. Replay yields the same (seq, payload) stream
// whether the records were batched or not, which is what keeps crash
// recovery unchanged; a crash mid-write loses the torn frame whole.
// Rotation is checked after the batch, so a segment may overshoot
// SegmentSize by at most one batch.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(payloads) == 0 {
		return l.seq, nil
	}
	for _, p := range payloads {
		if len(p) > maxRecordSize {
			return 0, fmt.Errorf("wal: record %d bytes exceeds limit %d", len(p), maxRecordSize)
		}
	}
	if err := l.ensureActiveLocked(); err != nil {
		return 0, err
	}
	buf := openFrame(l.scratch[:0], l.seq+1)
	frame := 0 // offset of the open frame's header in buf
	for i, p := range payloads {
		if len(buf)-frame-frameHeader+binary.MaxVarintLen32+len(p) > maxFrameBody {
			sealFrame(buf[frame:])
			frame = len(buf)
			buf = openFrame(buf, l.seq+1+uint64(i))
		}
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	sealFrame(buf[frame:])
	return l.commitLocked(buf, len(payloads))
}

// AppendEvents logs one ingest record per event, exactly as AppendBatch of
// their IngestRecord(e).AppendTo payloads would — the same frames, byte for
// byte — but encodes each record straight into the frame buffer instead of
// copying it there from a payload slice. It is the gateway's batch ingest
// path.
func (l *Log) AppendEvents(evts []event.Event) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(evts) == 0 {
		return l.seq, nil
	}
	if err := l.ensureActiveLocked(); err != nil {
		return 0, err
	}
	// recordSize < 128, so a record's uvarint length prefix is one byte.
	const packed = 1 + recordSize
	buf := openFrame(l.scratch[:0], l.seq+1)
	frame := 0 // offset of the open frame's header in buf
	for i := range evts {
		if len(buf)-frame-frameHeader+binary.MaxVarintLen32+recordSize > maxFrameBody {
			sealFrame(buf[frame:])
			frame = len(buf)
			buf = openFrame(buf, l.seq+1+uint64(i))
		}
		n := len(buf)
		buf = slices.Grow(buf, packed)[:n+packed]
		buf[n] = recordSize
		IngestRecord(evts[i]).put(buf[n+1:])
	}
	sealFrame(buf[frame:])
	return l.commitLocked(buf, len(evts))
}

// commitLocked is the shared tail of the append paths: it writes buf, the
// sealed frames of the next `records` records, then does the sequence, size
// and metric bookkeeping and applies the sync policy and rotation. buf
// becomes the log's scratch for the next append.
func (l *Log) commitLocked(buf []byte, records int) (uint64, error) {
	l.scratch = buf[:0]
	if _, err := l.active.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.seq += uint64(records)
	tail := &l.segs[len(l.segs)-1]
	tail.size += int64(len(buf))
	l.met.appends.Add(int64(records))
	l.met.bytes.Add(int64(len(buf)))
	l.unsynced += records
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case SyncBatch:
		if l.unsynced >= l.opts.BatchEvery {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	if tail.size >= l.opts.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return l.seq, nil
}

// openFrame appends the header of a frame whose first record is firstSeq;
// sealFrame fills in its body length and CRC once the body is packed.
func openFrame(buf []byte, firstSeq uint64) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, firstSeq)
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
}

// sealFrame completes the header of frame, which spans the header and its
// whole packed body.
func sealFrame(frame []byte) {
	binary.LittleEndian.PutUint32(frame[8:12], uint32(len(frame)-frameHeader))
	sum := crc32.Update(0, castagnoli, frame[0:12])
	binary.LittleEndian.PutUint32(frame[12:16], crc32.Update(sum, castagnoli, frame[frameHeader:]))
}

// Sync flushes the active segment to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	if l.active == nil || l.unsynced == 0 {
		return nil
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.unsynced = 0
	l.met.syncs.Inc()
	return nil
}

// ensureActiveLocked opens the tail segment for appending, creating the
// first segment of an empty log.
func (l *Log) ensureActiveLocked() error {
	if l.active != nil {
		return nil
	}
	if len(l.segs) == 0 {
		return l.newSegmentLocked(l.seq + 1)
	}
	tail := l.segs[len(l.segs)-1]
	f, err := os.OpenFile(tail.path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("wal: open active: %w", err)
	}
	// The repaired size, not the file end: scan() truncated torn bytes,
	// but another process could in principle have appended since.
	if _, err := f.Seek(tail.size, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	l.active = f
	return nil
}

func (l *Log) newSegmentLocked(firstSeq uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%016x.wal", firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	hdr := segmentHeader(firstSeq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: segment header: %w", err)
	}
	l.segs = append(l.segs, segment{path: path, firstSeq: firstSeq, size: segHeaderSize})
	l.active = f
	l.met.segments.Set(int64(len(l.segs)))
	// Make the new file itself durable: fsync the directory so the name
	// survives a power failure (same contract as checkpoint renames).
	return SyncDir(l.dir)
}

// rotateLocked seals the active segment (flush + close) and starts a new
// one whose first record will be seq+1.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: seal segment: %w", err)
	}
	l.active = nil
	l.met.rotations.Inc()
	return l.newSegmentLocked(l.seq + 1)
}

// Replay streams every durable record with sequence number greater than
// after, in order, into fn. It stops without error at the first torn or
// corrupt frame (counted), mirroring Open's repair semantics. Replay of
// the active segment is safe while the log is open as long as no Append
// runs concurrently — the caller serializes recovery before ingest.
func (l *Log) Replay(after uint64, fn func(seq uint64, payload []byte) error) error {
	return l.walk(after, func(seq uint64, payload []byte) error {
		l.met.replayed.Inc()
		return fn(seq, payload)
	})
}

// ExportTail collects copies of every durable record with sequence number
// greater than after, in order — the WAL half of a tenant handoff envelope:
// the receiving node appends these frames to its own log and replays them
// on top of the shipped checkpoint. Like Replay, the export stops silently
// at the first torn or corrupt frame (counted), so it ships exactly the
// prefix a local recovery would have applied. Safe while the log is open as
// long as no Append runs concurrently — the exporter drains ingest first.
func (l *Log) ExportTail(after uint64) ([][]byte, error) {
	var out [][]byte
	err := l.walk(after, func(_ uint64, payload []byte) error {
		out = append(out, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// walk runs scanSegment over the segment chain in order, passing fn every
// valid record with sequence number greater than after. fn's payload is
// only valid until it returns.
func (l *Log) walk(after uint64, fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	var prevLast uint64
	for i, s := range segs {
		if i > 0 && s.firstSeq != prevLast+1 {
			// A torn or corrupt middle segment left a sequence gap; the
			// records beyond it are not a continuation of the applied
			// prefix, so the walk must stop here.
			l.met.corrupt.Inc()
			return nil
		}
		last, _, err := l.scanSegment(&s, after, fn)
		if err != nil {
			return err
		}
		if last == 0 && s.size > segHeaderSize {
			// Nothing valid in a non-empty segment: the chain is broken
			// here; later segments would have a sequence gap.
			l.met.corrupt.Inc()
			return nil
		}
		prevLast = last
		if last == 0 {
			prevLast = s.firstSeq - 1
		}
	}
	return nil
}

// SkipTo advances an empty log's sequence counter so its first append is
// assigned seq+1 — how an adopting node continues a migrated tenant's
// sequence space instead of restarting at 1, keeping the shipped
// checkpoint's WALSeq meaningful against the new node's log. It refuses on
// a log that already holds records.
func (l *Log) SkipTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if len(l.segs) != 0 || l.seq != 0 {
		return fmt.Errorf("wal: SkipTo(%d) on non-empty log (last seq %d)", seq, l.seq)
	}
	l.seq = seq
	return nil
}

// TruncateThrough deletes sealed segments whose every record has sequence
// number <= seq — called after a checkpoint covering seq has been made
// durable. The active segment is never deleted, so the log always keeps a
// valid chain tail.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	n := 0
	for len(l.segs)-n >= 2 && l.segs[n+1].firstSeq-1 <= seq {
		if err := os.Remove(l.segs[n].path); err != nil {
			return fmt.Errorf("wal: truncate: %w", err)
		}
		n++
	}
	if n == 0 {
		return nil
	}
	l.segs = append(l.segs[:0], l.segs[n:]...)
	l.met.truncated.Add(int64(n))
	l.met.segments.Set(int64(len(l.segs)))
	return SyncDir(l.dir)
}

// Close flushes and closes the active segment. The log is unusable after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}

// SyncDir fsyncs a directory so renames/creates/removes within it are
// durable. Required on POSIX: fsyncing a file does not persist its name —
// checkpoint writers share this helper for their post-rename sync.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", dir, err)
	}
	return nil
}
