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
// NaN distance is equal to itself). check holds a decoded value to the
// properties of its own kind.
func fuzzDecoder[T any](f *testing.F, decode func([]byte) (*T, error), encode func([]byte, *T) []byte, largest func(*T) int, check func(*testing.T, []byte, *T)) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		v, err := decode(payload)
		if err != nil {
			return
		}
		if n := largest(v); n > len(payload) {
			t.Fatalf("%d-byte payload decoded to a slice of capacity %d", len(payload), n)
		}
		check(t, payload, v)
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

// FuzzDecodeRequest also holds every decoded OpSearchFP term list to
// what geodabsd's search relies on: strictly ascending, since the server
// wraps the decoded terms as the query's fingerprint set as they are.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(AppendRequest(nil, req))
	}
	fuzzDecoder(f, DecodeRequest, AppendRequest, func(r *Request) int { return max(cap(r.Terms), cap(r.Points)) },
		func(t *testing.T, _ []byte, r *Request) {
			if r.Op != OpSearchFP {
				return
			}
			for i := 1; i < len(r.Terms); i++ {
				if r.Terms[i] <= r.Terms[i-1] {
					t.Fatalf("decoded terms %d and %d not strictly ascending: %d, %d", i-1, i, r.Terms[i-1], r.Terms[i])
				}
			}
		})
}

// FuzzDecodeResponse also decodes each payload into a Response already
// holding hits, as a client connection's reused reply does: the result
// must encode as the fresh decode does.
func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range sampleResponses() {
		f.Add(AppendResponse(nil, resp))
	}
	fuzzDecoder(f, DecodeResponse, AppendResponse, func(r *Response) int { return max(cap(r.Hits), len(r.Message)) },
		func(t *testing.T, payload []byte, r *Response) {
			reused := &Response{Message: "stale", Hits: make([]Hit, 2, 4)}
			if err := DecodeResponseInto(reused, payload); err != nil {
				t.Fatalf("decode into a reused response: %v", err)
			}
			if got, want := AppendResponse(nil, reused), AppendResponse(nil, r); !bytes.Equal(got, want) {
				t.Fatalf("decode into a reused response gave %+v, a fresh decode %+v", reused, r)
			}
		})
}
