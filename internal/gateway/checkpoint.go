package gateway

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/wal"
	"repro/internal/window"
)

// CheckpointVersion is the only checkpoint schema this build reads. A file
// at any other version, or without the DICECKS1 envelope, fails with
// ErrLegacyCheckpoint rather than restoring garbage.
const CheckpointVersion = 4

// ErrLegacyCheckpoint marks a checkpoint this build does not read: a
// pre-envelope plain-JSON file, or an envelope whose schema version is not
// CheckpointVersion. Unlike ErrCorruptCheckpoint it is no cue to cold-start
// over the WAL, which is truncated behind the checkpoint it belongs to:
// delete the checkpoint and its WAL directory and let the devices rebuild
// the state.
var ErrLegacyCheckpoint = errors.New("gateway: legacy checkpoint")

// Checkpoint is the crash-safe persisted runtime state of a gateway: every
// piece of state the transition check and window builder carry between
// windows, plus the counters. A gateway restored from a checkpoint resumes
// the stream mid-window — same previous group, same partial window, same
// in-flight identification episodes — so a restart raises no spurious
// violation.
type Checkpoint struct {
	// V is the schema version ("v":4).
	V int `json:"v"`
	// Home is the tenant this checkpoint belongs to. Empty for a
	// single-home gateway; a hub stamps its tenant ID so a checkpoint
	// directory is self-describing and a file restored into the wrong
	// tenant is rejected.
	Home        string              `json:"home,omitempty"`
	SavedAtUnix int64               `json:"saved_at_unix"`
	HorizonMS   int64               `json:"horizon_ms"`
	StreamNowMS int64               `json:"stream_now_ms"`
	Stats       Stats               `json:"stats"`
	Detector    core.DetectorState  `json:"detector"`
	Builder     window.BuilderState `json:"builder"`
	LastSeenMS  map[device.ID]int64 `json:"last_seen_ms,omitempty"`
	Dark        []device.ID         `json:"dark,omitempty"`
	// WALSeq is the sequence number of the last WAL op this checkpoint
	// covers: replay after restore skips everything at or below it, and a
	// successful checkpoint write lets the owner truncate segments it
	// covers. Zero when no WAL was attached.
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// Context pins the context version the detector state refers to,
	// carrying the full version payload so a restore can rebuild the
	// detector on exactly that version — including rolling back to an
	// earlier epoch after a bad adaptation. Nil for non-adaptive gateways,
	// whose context is immutable and supplied at construction. Adapter is
	// the matching candidate ledger.
	Context *ContextCheckpoint `json:"context,omitempty"`
	Adapter *core.AdapterState `json:"adapter,omitempty"`
}

// ContextCheckpoint is the versioned-context pin inside a checkpoint: the
// epoch and hash chain identify the version, Data is the full DICECKS1
// context envelope (Context.Save form) so restore needs nothing but the
// layout.
type ContextCheckpoint struct {
	Epoch       uint64 `json:"epoch"`
	Fingerprint string `json:"fingerprint"`
	Parent      string `json:"parent,omitempty"`
	Data        []byte `json:"data"`
}

// ExportCheckpoint snapshots the gateway's runtime state.
func (g *Gateway) ExportCheckpoint() *Checkpoint {
	g.mu.Lock()
	defer g.mu.Unlock()
	cp := &Checkpoint{
		V:           CheckpointVersion,
		SavedAtUnix: time.Now().Unix(),
		HorizonMS:   g.horizon.Milliseconds(),
		StreamNowMS: g.streamNow.Milliseconds(),
		Stats:       g.statsLocked(),
		Detector:    g.det.ExportState(),
		Builder:     g.builder.ExportState(),
		WALSeq:      g.walSeq,
	}
	g.eachLive(func(id device.ID, s *liveState) {
		if !s.seen {
			return
		}
		if cp.LastSeenMS == nil {
			cp.LastSeenMS = make(map[device.ID]int64)
		}
		cp.LastSeenMS[id] = s.at.Milliseconds()
		if s.dark {
			cp.Dark = append(cp.Dark, id)
		}
	})
	if g.adapter != nil {
		ctx := g.det.Context()
		var buf bytes.Buffer
		if err := ctx.Save(&buf); err == nil {
			cp.Context = &ContextCheckpoint{
				Epoch:       ctx.Epoch(),
				Fingerprint: ctx.Fingerprint(),
				Parent:      ctx.ParentFingerprint(),
				Data:        buf.Bytes(),
			}
		}
		cp.Adapter = g.adapter.ExportState()
	}
	return cp
}

// RestoreCheckpoint replaces the gateway's runtime state with a snapshot.
// The gateway must have been built against the same trained context (the
// detector and builder validate group and layout references).
func (g *Gateway) RestoreCheckpoint(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("gateway: nil checkpoint")
	}
	if cp.V != CheckpointVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrLegacyCheckpoint, cp.V, CheckpointVersion)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if cp.Context != nil {
		if err := g.restoreContextLocked(cp.Context, cp.Adapter); err != nil {
			return err
		}
	}
	if err := g.det.RestoreState(cp.Detector); err != nil {
		return err
	}
	if err := g.builder.RestoreState(cp.Builder); err != nil {
		return err
	}
	// Counter.Store exists exactly for this path: the restored process
	// resumes the cumulative series where the crashed one left off.
	// DarkDevices is derived from the dark set below, not restored.
	g.met.events.Store(cp.Stats.Events)
	g.met.windows.Store(cp.Stats.Windows)
	g.met.violations.Store(cp.Stats.Violations)
	g.met.alerts.Store(cp.Stats.Alerts)
	g.met.alertsDropped.Store(cp.Stats.AlertsDropped)
	g.met.liveness.Store(cp.Stats.LivenessAlerts)
	g.horizon = time.Duration(cp.HorizonMS) * time.Millisecond
	g.streamNow = time.Duration(cp.StreamNowMS) * time.Millisecond
	clear(g.live)
	g.liveExtra = nil
	g.nDark = 0
	for id, ms := range cp.LastSeenMS {
		s := g.liveSlot(id)
		s.at, s.seen = time.Duration(ms)*time.Millisecond, true
	}
	for _, id := range cp.Dark {
		if s := g.liveSlot(id); !s.dark {
			s.dark = true
			g.nDark++
		}
	}
	g.met.dark.Set(int64(g.nDark))
	g.nextDark = scanDark
	g.walSeq = cp.WALSeq
	// Arm the liveness rebase: if the first post-restore clock movement
	// jumps past the silence threshold, the gap was downtime, and last-seen
	// stamps shift rather than every device going dark (see
	// observeClockLocked). WAL replay does not consume the flag.
	g.rebasePending = true
	return nil
}

// restoreContextLocked rebuilds the detector (and the adapter, when
// adaptation is on) around the context version pinned in a checkpoint.
// Restoring to an epoch below the current one is a rollback — the repair
// path for a bad adaptation — and is counted as such.
func (g *Gateway) restoreContextLocked(cc *ContextCheckpoint, ast *core.AdapterState) error {
	if len(cc.Data) == 0 {
		return fmt.Errorf("gateway: checkpoint context pin has no payload")
	}
	cur := g.det.Context()
	ctx, err := core.LoadContext(bytes.NewReader(cc.Data), cur.Layout())
	if err != nil {
		return fmt.Errorf("gateway: checkpoint context: %w", err)
	}
	if ctx.Fingerprint() != cc.Fingerprint || ctx.Epoch() != cc.Epoch {
		return fmt.Errorf("%w: context payload is epoch %d (%s), pin says epoch %d (%s)",
			ErrCorruptCheckpoint, ctx.Epoch(), ctx.Fingerprint(), cc.Epoch, cc.Fingerprint)
	}
	if ctx.Fingerprint() != cur.Fingerprint() {
		det, err := core.New(ctx, core.WithConfig(g.cfg), core.WithTelemetry(g.tel))
		if err != nil {
			return err
		}
		if ctx.Epoch() < cur.Epoch() {
			g.met.ctxRollbacks.Inc()
		}
		g.det = det
	}
	if g.adapt {
		adapter, err := core.NewAdapter(g.det.Context(), g.adaptOpts...)
		if err != nil {
			return err
		}
		if ast != nil {
			if err := adapter.RestoreState(ast); err != nil {
				return err
			}
		}
		g.adapter = adapter
	}
	return nil
}

// ErrCorruptCheckpoint marks a checkpoint file whose checksum envelope
// failed to verify — a torn write or bit rot, not a schema problem.
// Callers should treat it as "no checkpoint" (cold start + WAL replay)
// rather than a fatal restore error: the file is evidence of damage, and
// refusing to start would turn one bad sector into an outage.
var ErrCorruptCheckpoint = errors.New("gateway: corrupt checkpoint")

// ckptMagic opens the checksummed checkpoint envelope:
// magic + 4-byte little-endian CRC32-C of the JSON payload + the JSON.
var ckptMagic = [8]byte{'D', 'I', 'C', 'E', 'C', 'K', 'S', '1'}

var ckptCRCTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeCheckpoint renders a checkpoint as its checksummed envelope bytes
// (magic + CRC32-C + JSON) — the same format WriteCheckpoint persists, as
// an in-memory value a handoff can ship between nodes. DecodeCheckpoint
// verifies and reverses it.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	payload, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("gateway: checkpoint encode: %w", err)
	}
	return sealCheckpoint(payload), nil
}

// sealCheckpoint wraps a JSON payload in the checksummed envelope.
func sealCheckpoint(payload []byte) []byte {
	out := make([]byte, 12+len(payload))
	copy(out[:8], ckptMagic[:])
	binary.LittleEndian.PutUint32(out[8:12], crc32.Checksum(payload, ckptCRCTable))
	copy(out[12:], payload)
	return out
}

// DecodeCheckpoint parses envelope bytes produced by EncodeCheckpoint (or
// read whole from a WriteCheckpoint file), verifying the checksum (damage
// reports ErrCorruptCheckpoint) and the schema version (a file without the
// envelope, or at another version, reports ErrLegacyCheckpoint).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < 12 || !bytes.Equal(data[:8], ckptMagic[:]) {
		return nil, fmt.Errorf("%w: no DICECKS1 envelope", ErrLegacyCheckpoint)
	}
	want := binary.LittleEndian.Uint32(data[8:12])
	data = data[12:]
	if crc32.Checksum(data, ckptCRCTable) != want {
		return nil, fmt.Errorf("%w: envelope fails CRC", ErrCorruptCheckpoint)
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("gateway: parse checkpoint: %w", err)
	}
	if cp.V != CheckpointVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrLegacyCheckpoint, cp.V, CheckpointVersion)
	}
	return &cp, nil
}

// WriteCheckpoint atomically persists a checkpoint: write to a temp file in
// the same directory, fsync, rename over the target, fsync the directory.
// A crash mid-write leaves the previous checkpoint intact; readers never
// observe a torn file. The payload is wrapped in a checksummed envelope so
// damage that slips past the rename discipline (bit rot, torn sectors) is
// detected at read time instead of restoring garbage.
func WriteCheckpoint(path string, cp *Checkpoint) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("gateway: checkpoint temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	env, err := EncodeCheckpoint(cp)
	if err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(env); err != nil {
		tmp.Close()
		return fmt.Errorf("gateway: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("gateway: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("gateway: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("gateway: checkpoint rename: %w", err)
	}
	// POSIX durability contract: fsync on the temp file persists its
	// contents, but the rename lives in the directory, and only an fsync of
	// the directory persists that. Without it a power failure can roll the
	// name back to the old file — or to nothing.
	if err := wal.SyncDir(dir); err != nil {
		return fmt.Errorf("gateway: checkpoint dir sync: %w", err)
	}
	return nil
}

// ReadCheckpoint loads a checkpoint written by WriteCheckpoint, verifying
// the checksum envelope (damage reports ErrCorruptCheckpoint) and the
// schema version (older files report ErrLegacyCheckpoint).
func ReadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gateway: read checkpoint: %w", err)
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		if errors.Is(err, ErrCorruptCheckpoint) {
			return nil, fmt.Errorf("%w: %s fails CRC", ErrCorruptCheckpoint, path)
		}
		return nil, fmt.Errorf("gateway: checkpoint %s: %w", path, err)
	}
	return cp, nil
}
