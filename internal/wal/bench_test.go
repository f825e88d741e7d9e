package wal

import "testing"

// benchRecords is the log size BenchmarkOpen and BenchmarkReplay scan.
const benchRecords = 50_000

// benchShapes are the append shapes BenchmarkOpen and BenchmarkReplay scan:
// one record per Append, and the 64-record batches the gateway writes.
var benchShapes = []struct {
	name  string
	batch int
}{{"append", 1}, {"batch64", 64}}

// benchLog writes benchRecords records to a fresh log in AppendBatch calls
// of batch records and returns its directory.
func benchLog(b *testing.B, opts Options, batch int) string {
	b.Helper()
	dir := b.TempDir()
	l, err := Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchRecords; i += batch {
		if _, err := l.AppendBatch(batchOf(i, min(i+batch, benchRecords))); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

func reportPerRecord(b *testing.B, records int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

// BenchmarkAppendBatch prices the binary wire's WAL write: 64-record
// batches under SyncNever, so the number is framing, CRC and write cost
// without fsync. Sealed segments are truncated off the clock, as a
// checkpoint would, to bound the disk the run uses.
func BenchmarkAppendBatch(b *testing.B) {
	const batch = 64
	l, err := Open(b.TempDir(), Options{Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payloads := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = testRecord(i).AppendTo(nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.AppendBatch(payloads); err != nil {
			b.Fatal(err)
		}
		if i%256 == 255 {
			b.StopTimer()
			if err := l.TruncateThrough(l.LastSeq()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	reportPerRecord(b, batch)
}

// BenchmarkOpen prices the tail scan Open runs on restart, over one
// segment holding every record, for each append shape.
func BenchmarkOpen(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			dir := benchLog(b, Options{Sync: SyncNever, SegmentSize: 1 << 30}, shape.batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, err := Open(dir, Options{Sync: SyncNever})
				if err != nil {
					b.Fatal(err)
				}
				if got := l.LastSeq(); got != benchRecords {
					b.Fatalf("LastSeq = %d, want %d", got, benchRecords)
				}
				l.Close()
			}
			reportPerRecord(b, benchRecords)
		})
	}
}

// BenchmarkReplay prices crash recovery's read side: Replay of every
// record across default-size segments, for each append shape.
func BenchmarkReplay(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			l, err := Open(benchLog(b, Options{Sync: SyncNever}, shape.batch), Options{Sync: SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := l.Replay(0, func(uint64, []byte) error { n++; return nil }); err != nil {
					b.Fatal(err)
				}
				if n != benchRecords {
					b.Fatalf("replayed %d records, want %d", n, benchRecords)
				}
			}
			reportPerRecord(b, benchRecords)
		})
	}
}
