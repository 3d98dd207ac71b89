package wal

import (
	"bytes"
	"math/rand"
	"testing"

	"geodabs/internal/geo"
)

// FuzzDecodeRecord: DecodeRecord reads record payloads off disk (and,
// through replication, off a socket); the CRC in front of it catches
// rot, not a hostile or buggy writer. Whatever the bytes: no panic, no
// slice sized by a claimed count rather than by the bytes present, and a
// payload that decodes re-encodes to one that decodes to the same record
// (compared as encodings, so NaN coordinates are equal to themselves).
func FuzzDecodeRecord(f *testing.F) {
	rng := rand.New(rand.NewSource(1)) // TestAppendReplayRoundTrip's records
	for e := uint64(1); e <= 20; e++ {
		r := randRecord(rng, e)
		f.Add(AppendRecord(nil, &r))
	}
	f.Add(AppendRecord(nil, &Record{Op: OpAddPoints, Epoch: 21, ID: 7, Card: 3, Terms: []uint32{9, 4, 1 << 31},
		Points: []geo.Point{{Lat: 51.5, Lon: -0.1}, {Lat: 51.6, Lon: -0.2}}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		if cap(r.Terms) > len(payload) || cap(r.Points) > len(payload)/16 {
			t.Fatalf("%d-byte payload decoded to cap %d terms, cap %d points",
				len(payload), cap(r.Terms), cap(r.Points))
		}
		enc := AppendRecord(nil, r)
		again, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of %+v: %v", r, err)
		}
		if enc2 := AppendRecord(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the record\n first %+v\nsecond %+v", r, again)
		}
	})
}
