package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegment feeds arbitrary bytes after a valid header of segment 1.
// Whatever they hold, Open must repair rather than fail, Replay must yield
// exactly seqs 1..LastSeq() in order, and the next Append must continue at
// LastSeq()+1. The seeds are three one-record frames and one three-record
// batch frame.
func FuzzSegment(f *testing.F) {
	name, data := oneSegment(f, 3)
	f.Add(data[segHeaderSize:])
	var body []byte
	for _, p := range batchOf(0, 3) {
		body = append(body, packed(p)...)
	}
	f.Add(rawFrame(1, body))
	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		hdr := segmentHeader(1)
		if err := os.WriteFile(filepath.Join(dir, name), append(hdr[:], body...), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer l.Close()
		last := l.LastSeq()
		next := uint64(1)
		err = l.Replay(0, func(seq uint64, _ []byte) error {
			if seq != next {
				return fmt.Errorf("replayed seq %d, want %d", seq, next)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if next-1 != last {
			t.Fatalf("replay ended at seq %d, LastSeq %d", next-1, last)
		}
		seq, err := l.Append(testRecord(0).AppendTo(nil))
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if seq != last+1 {
			t.Fatalf("append got seq %d, want %d", seq, last+1)
		}
	})
}
