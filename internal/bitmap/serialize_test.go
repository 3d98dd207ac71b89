package bitmap

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tests := []struct {
		name  string
		build func() *Bitmap
	}{
		{"empty", New},
		{"small-array", func() *Bitmap { return FromSlice([]uint32{1, 5, 70000}) }},
		{"dense-bitmap", func() *Bitmap {
			b := New()
			for i := 0; i < 6000; i++ {
				b.Add(uint32(i * 2))
			}
			return b
		}},
		{"runs", func() *Bitmap {
			b := New()
			for i := 0; i < 9000; i++ {
				b.Add(uint32(i))
			}
			return b
		}},
		{"mixed-random", func() *Bitmap {
			b, _ := randomSets(rng, 20000)
			return b
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			orig := tt.build()
			var buf bytes.Buffer
			n, err := orig.WriteTo(&buf)
			if err != nil {
				t.Fatalf("WriteTo: %v", err)
			}
			if n != int64(buf.Len()) {
				t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
			}
			got := New()
			if _, err := got.ReadFrom(&buf); err != nil {
				t.Fatalf("ReadFrom: %v", err)
			}
			if !slices.Equal(got.ToSlice(), orig.ToSlice()) {
				t.Errorf("round trip lost data: %d vs %d values", got.Cardinality(), orig.Cardinality())
			}
		})
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad-magic", []byte{1, 2, 3, 4, 1, 0, 0, 0, 0}},
		{"truncated", func() []byte {
			var buf bytes.Buffer
			b := FromSlice([]uint32{1, 2, 3})
			if _, err := b.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()[:buf.Len()-2]
		}()},
		// More chunks than there are 16-bit keys: refused before any
		// allocation is sized by the count (0xbebebebe once ran the
		// process out of memory).
		{"chunk-count-past-key-space", []byte{0x47, 0x44, 0x42, 0x4d, formatVersion, 0xbe, 0xbe, 0xbe, 0xbe}},
		// Chunk kinds other than array (1) and bitmap (2). Kind 3 is
		// the run container the format once had, spelled out as one
		// run over 5 through 8; nothing ever wrote one.
		{"kind-0", chunkOfKind(0)},
		{"kind-3", chunkOfKind(3)},
		{"kind-4", chunkOfKind(4)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := New()
			if _, err := b.ReadFrom(bytes.NewReader(tt.data)); err == nil {
				t.Error("ReadFrom should fail")
			}
		})
	}
}

// chunkOfKind returns a one-chunk bitmap whose chunk has the given kind
// byte and a one-run run-container payload.
func chunkOfKind(kind byte) []byte {
	return []byte{0x47, 0x44, 0x42, 0x4d, formatVersion, 1, 0, 0, 0, // magic, version, one chunk
		0, 0, kind, // key 0, kind
		1, 0, 0, 0, 5, 0, 3, 0} // one run: start 5, length 3
}

func TestReadFromRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	b := FromSlice([]uint32{1})
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // version byte
	if _, err := New().ReadFrom(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("want version error, got %v", err)
	}
}

func TestReadFromReplacesContents(t *testing.T) {
	var buf bytes.Buffer
	if _, err := FromSlice([]uint32{42}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := FromSlice([]uint32{1, 2, 3})
	if _, err := b.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if b.Cardinality() != 1 || !b.Contains(42) {
		t.Errorf("ReadFrom should replace contents, got %v", b.ToSlice())
	}
}

func BenchmarkAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	values := make([]uint32, 10000)
	for i := range values {
		values[i] = rng.Uint32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromSlice(values)
	}
}
