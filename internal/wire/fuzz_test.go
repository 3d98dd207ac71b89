package wire

import (
	"bytes"
	"testing"
)

// fuzzDecoder holds a decoder of bytes straight off a socket to three
// properties, whatever arrives: no panic; no slice sized by a claimed
// count rather than by the bytes present (largest reports the biggest
// capacity in a decoded value); and a payload that decodes re-encodes to
// a payload that decodes to the same value (compared as encodings, so a
// NaN distance is equal to itself).
func fuzzDecoder[T any](f *testing.F, decode func([]byte) (*T, error), encode func([]byte, *T) []byte, largest func(*T) int) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		v, err := decode(payload)
		if err != nil {
			return
		}
		if n := largest(v); n > len(payload) {
			t.Fatalf("%d-byte payload decoded to a slice of capacity %d", len(payload), n)
		}
		enc := encode(nil, v)
		again, err := decode(enc)
		if err != nil {
			t.Fatalf("re-decode of %+v: %v", v, err)
		}
		if !bytes.Equal(enc, encode(nil, again)) {
			t.Fatalf("round trip changed the value\n first %+v\nsecond %+v", v, again)
		}
	})
}

func FuzzDecodeRequest(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(AppendRequest(nil, req))
	}
	fuzzDecoder(f, DecodeRequest, AppendRequest, func(r *Request) int { return max(cap(r.Terms), cap(r.Points)) })
}

func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range sampleResponses() {
		f.Add(AppendResponse(nil, resp))
	}
	fuzzDecoder(f, DecodeResponse, AppendResponse, func(r *Response) int { return max(cap(r.Hits), len(r.Message)) })
}
