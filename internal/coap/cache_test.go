package coap

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// cacheKey is the dedup key of exchange i from one IPv4 peer.
func cacheKey(i int) dedupKey {
	k := dedupKey{addr: [16]byte{10: 0xff, 11: 0xff, 12: 127, 15: 1}, port: 5683, mid: uint16(i), tkl: 4}
	binary.BigEndian.PutUint32(k.tok[:], uint32(i))
	return k
}

// cacheAck is a distinct 8-byte ACK per exchange, the size of a /report
// ACK with a 4-byte token.
func cacheAck(i int) []byte {
	return binary.BigEndian.AppendUint32([]byte{0x64, 0x44, 0, 0}, uint32(i))
}

// handled reports whether a request for key at now would reach the handler,
// i.e. whether the cache holds no exchange for it.
func handled(c *exchangeCache, key dedupKey, now time.Duration) bool {
	_, _, dup := c.admit(key, now)
	return !dup
}

// TestExchangeCacheExpiry drives the cache's clock by hand. The lifetime is
// 3 spans, so bucket n (admitting [n·span, (n+1)·span)) is dropped at
// (n+4)·span.
func TestExchangeCacheExpiry(t *testing.T) {
	const life = 3 * time.Second
	span := life / (dedupBuckets - 1)

	t.Run("replayed inside the lifetime", func(t *testing.T) {
		// Born at the start, the middle and the very end of a bucket.
		for i, born := range []time.Duration{2 * span, 2*span + span/2, 3*span - 1} {
			c := newExchangeCache(life)
			k := cacheKey(i)
			n, _, dup := c.admit(k, born)
			if dup {
				t.Fatalf("born %v: a new exchange was taken for a retransmission", born)
			}
			c.complete(n, k, cacheAck(i))
			_, ack, dup := c.admit(k, born+life-1)
			if !dup || !bytes.Equal(ack, cacheAck(i)) {
				t.Errorf("born %v: retransmission just inside the lifetime got dup=%v ack %x", born, dup, ack)
			}
		}
	})

	t.Run("handled past the bucket bound", func(t *testing.T) {
		for i, born := range []time.Duration{2 * span, 3*span - 1} {
			c := newExchangeCache(life)
			k := cacheKey(i)
			n, _, _ := c.admit(k, born)
			c.complete(n, k, cacheAck(i))
			bound := (2 + dedupBuckets) * span // bucket 2 is dropped here
			if handled(&c, k, bound-1) {
				t.Errorf("born %v: dropped before its bucket expired", born)
			}
			if !handled(&c, k, bound) {
				t.Errorf("born %v: retransmission at %v, past the bucket bound, was absorbed", born, bound)
			}
		}
	})

	t.Run("late handler caches in its own bucket", func(t *testing.T) {
		c := newExchangeCache(life)
		k := cacheKey(1)
		n, _, _ := c.admit(k, 0)
		if !handled(&c, cacheKey(2), 2*span) { // rotates to bucket 2
			t.Fatal("unrelated exchange absorbed")
		}
		c.complete(n, k, cacheAck(1))
		if _, ack, dup := c.admit(k, 3*span); !dup || !bytes.Equal(ack, cacheAck(1)) {
			t.Errorf("ACK of a handler that outlived its bucket's turn: dup=%v ack %x", dup, ack)
		}
		if got := c.buckets[2].arena; len(got) != 0 {
			t.Errorf("ACK landed in the newest bucket's arena %x", got)
		}
	})

	t.Run("late handler caches nowhere once expired", func(t *testing.T) {
		c := newExchangeCache(life)
		k := cacheKey(1)
		n, _, _ := c.admit(k, 0)
		if !handled(&c, cacheKey(2), dedupBuckets*span) { // slot 0 now holds bucket 4
			t.Fatal("unrelated exchange absorbed")
		}
		c.complete(n, k, cacheAck(1))
		for i := range c.buckets {
			if b := &c.buckets[i]; len(b.arena) != 0 {
				t.Errorf("bucket %d cached %x for an expired exchange", b.n, b.arena)
			}
		}
		if !handled(&c, k, dedupBuckets*span) {
			t.Error("an expired exchange was absorbed")
		}
	})

	t.Run("re-admitted shed exchange keeps no older one alive", func(t *testing.T) {
		c := newExchangeCache(life)
		shed, a, b := cacheKey(1), cacheKey(2), cacheKey(3)
		n, _, _ := c.admit(shed, 0)
		c.forget(n, shed)
		for _, k := range []dedupKey{a, b} {
			n, _, _ := c.admit(k, 0)
			c.complete(n, k, cacheAck(0))
		}
		if !handled(&c, shed, 3*span) {
			t.Fatal("a shed exchange was absorbed instead of re-admitted")
		}
		bound := dedupBuckets * span
		if handled(&c, shed, bound) {
			t.Error("the re-admitted exchange expired inside its lifetime")
		}
		for _, k := range []dedupKey{a, b} {
			if !handled(&c, k, bound) {
				t.Errorf("exchange %v outlived its bucket behind a re-admitted one", k.tok)
			}
		}
	})
}

// hasPointers reports whether values of t hold any pointer the garbage
// collector would scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// TestExchangeCacheEntryShape pins the cost of one cached exchange: its
// map key and value hold no pointers, and admitting and completing an
// exchange allocates nothing once the bucket has grown.
func TestExchangeCacheEntryShape(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[dedupKey](), reflect.TypeFor[ackRef]()} {
		if hasPointers(typ) {
			t.Errorf("%v holds pointers", typ)
		}
	}

	c := newExchangeCache(247 * time.Second)
	const warm = 1 << 12
	for i := 0; i < warm; i++ {
		n, _, _ := c.admit(cacheKey(i), 0)
		c.complete(n, cacheKey(i), cacheAck(i))
	}
	i := warm
	ack := cacheAck(0)
	allocs := testing.AllocsPerRun(100, func() {
		k := cacheKey(i)
		n, _, _ := c.admit(k, time.Second)
		c.complete(n, k, ack)
		i++
	})
	if allocs != 0 {
		t.Errorf("admit+complete: %v allocs, want 0", allocs)
	}
}

// BenchmarkServerExchangeCache admits and completes n exchanges with
// 8-byte ACKs in one cache and reports the live heap each one holds.
func BenchmarkServerExchangeCache(b *testing.B) {
	const n = 1 << 14
	keys := make([]dedupKey, n)
	for i := range keys {
		keys[i] = cacheKey(i)
	}
	ack := cacheAck(0)
	var live float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		c := newExchangeCache(247 * time.Second)
		for _, k := range keys {
			bn, _, _ := c.admit(k, 0)
			c.complete(bn, k, ack)
		}
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		live = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
		runtime.KeepAlive(&c)
		b.StartTimer()
	}
	b.ReportMetric(live, "B/exchange")
}
