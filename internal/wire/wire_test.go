package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func roundTripRequest(t *testing.T, req *Request) *Request {
	t.Helper()
	payload := AppendRequest(nil, req)
	got, err := DecodeRequest(payload)
	if err != nil {
		t.Fatalf("DecodeRequest(%s): %v", req.Op, err)
	}
	return got
}

// sampleRequests is one request of every op and shape: the round-trip
// table, and the seed corpus of FuzzDecodeRequest.
func sampleRequests() []*Request {
	return []*Request{
		{ID: 1, Op: OpPing},
		{ID: 7, Op: OpPing, DeadlineMS: 1500},
		{ID: 2, Op: OpSearchFP, DeadlineMS: 250, MaxDistance: 0.5, Limit: 10, Terms: []uint32{3, 9, 10, 1 << 30}},
		{ID: 3, Op: OpSearchFP, MaxDistance: 1, KNN: 5, Terms: []uint32{}},
		{ID: 4, Op: OpSearch, MaxDistance: 0.9, Limit: 3, Points: []Point{{Lat: 51.5, Lon: -0.1}, {Lat: 51.6, Lon: -0.2}}},
		{ID: 5, Op: OpUpsert, TrajID: 42, Points: []Point{{Lat: 1, Lon: 2}, {Lat: 3, Lon: 4}, {Lat: 5, Lon: 6}}},
		{ID: 6, Op: OpDelete, TrajID: 4242},
		{ID: 8, Op: OpSearchRerank, MaxDistance: 0.99, KNN: 5, Metric: MetricDTW, Points: []Point{{Lat: 51.5, Lon: -0.1}, {Lat: 51.6, Lon: -0.2}}},
		{ID: 9, Op: OpSearchRerank, MaxDistance: 1, Limit: 10, Metric: MetricDFD, Points: []Point{{Lat: 1, Lon: 2}}},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range sampleRequests() {
		got := roundTripRequest(t, req)
		// Canonicalize empty slices: the codec may decode nil for empty.
		if len(req.Terms) == 0 {
			req.Terms, got.Terms = nil, nil
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("%s: round trip mismatch\n got %+v\nwant %+v", req.Op, got, req)
		}
	}
}

func TestRequestRoundTripFuzzTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(64)
		seen := make(map[uint32]bool, n)
		terms := make([]uint32, 0, n)
		for len(terms) < n {
			v := rng.Uint32()
			if !seen[v] {
				seen[v] = true
				terms = append(terms, v)
			}
		}
		sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })
		req := &Request{ID: uint64(trial), Op: OpSearchFP, MaxDistance: rng.Float64(), Terms: terms}
		got := roundTripRequest(t, req)
		if len(terms) == 0 {
			continue
		}
		if !reflect.DeepEqual(got.Terms, terms) {
			t.Fatalf("trial %d: terms mismatch", trial)
		}
	}
}

// sampleResponses is one response of every status: the round-trip
// table, and the seed corpus of FuzzDecodeResponse.
func sampleResponses() []*Response {
	return []*Response{
		{ID: 1, Status: StatusOK, Hits: []Hit{{ID: 9, Distance: 0.25, Shared: 12}, {ID: 10, Distance: 1, Shared: 1}},
			Stats: Stats{Candidates: 31, Pruned: 4, NodePruned: 6, WirePartials: 25, Shards: 5, Nodes: 3, ElapsedUS: 1234}},
		{ID: 2, Status: StatusOK},
		{ID: 3, Status: StatusError, Message: "node exploded"},
		{ID: 4, Status: StatusOverloaded},
		{ID: 5, Status: StatusNotFound, Message: "trajectory 9 not found"},
		{ID: 6, Status: StatusDeadlineExceeded},
		{ID: 7, Status: StatusShuttingDown},
		{ID: 8, Status: StatusBadRequest, Message: "trailing bytes"},
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, resp := range sampleResponses() {
		payload := AppendResponse(nil, resp)
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("DecodeResponse(%v): %v", resp.Status, err)
		}
		if len(resp.Hits) == 0 {
			resp.Hits, got.Hits = nil, nil
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("%v: round trip mismatch\n got %+v\nwant %+v", resp.Status, got, resp)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xAB}, 4096)}
	var stream []byte
	for _, p := range payloads {
		var err error
		if stream, err = AppendFrame(stream, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(stream)
	for i, want := range payloads {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(r); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: got %v, want EOF", err)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var stream []byte
	stream = binary.BigEndian.AppendUint32(stream, 100)
	stream = append(stream, 1, 2, 3) // 3 of the announced 100 bytes
	if _, err := ReadFrame(bytes.NewReader(stream)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want ErrUnexpectedEOF", err)
	}
}

func TestDecodeRequestMalformed(t *testing.T) {
	valid := AppendRequest(nil, &Request{ID: 1, Op: OpSearchFP, MaxDistance: 1, Terms: []uint32{1, 2, 3}})
	// An id one past uint32 plus 5: narrowed unchecked it would name
	// trajectory 5.
	wideID := binary.AppendUvarint(nil, 1<<32+5)
	header := func(op Op) []byte { return []byte{Version, byte(op), 1, 0} }
	searchFP := append(header(OpSearchFP), valid[4:4+8+2]...) // maxDistance, limit, knn
	for _, ok := range [][]byte{append(header(OpDelete), 5), append(header(OpUpsert), 5, 0), append(searchFP, 2, 5, 1)} {
		if _, err := DecodeRequest(ok); err != nil {
			t.Fatalf("hand-encoded baseline % x: %v", ok, err)
		}
	}
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"bad version", append([]byte{99}, valid[1:]...)},
		{"unknown op", []byte{Version, 200, 1, 0}},
		{"truncated mid-terms", valid[:len(valid)-1]},
		{"trailing garbage", append(append([]byte{}, valid...), 0xFF)},
		{"hostile term count", append([]byte{Version, byte(OpSearchFP), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)},
		{"delete id past uint32", append(header(OpDelete), wideID...)},
		{"upsert id past uint32", append(append(header(OpUpsert), wideID...), 0)},
		// Two terms, 5 then a delta of 2⁶⁴−1: the sum wraps to 4.
		{"term delta wraps uint64", append(append(searchFP, 2, 5), binary.AppendUvarint(nil, math.MaxUint64)...)},
	}
	for _, tc := range cases {
		if _, err := DecodeRequest(tc.payload); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

func TestDecodeRequestRejectsUnknownRerankMetric(t *testing.T) {
	payload := AppendRequest(nil, &Request{ID: 1, Op: OpSearchRerank, MaxDistance: 1, KNN: 3, Metric: 99, Points: []Point{{Lat: 1, Lon: 2}}})
	if _, err := DecodeRequest(payload); err == nil {
		t.Fatal("unknown rerank metric decoded without error")
	}
}

func TestDecodeRequestRejectsUnsortedTerms(t *testing.T) {
	// Hand-encode a duplicate term (delta 0): must be rejected, the set
	// contract is strictly ascending.
	payload := []byte{Version, byte(OpSearchFP)}
	payload = binary.AppendUvarint(payload, 1)                           // id
	payload = binary.AppendUvarint(payload, 0)                           // deadline
	payload = binary.BigEndian.AppendUint64(payload, 0x3FF0000000000000) // maxDistance = 1.0
	payload = binary.AppendUvarint(payload, 0)                           // limit
	payload = binary.AppendUvarint(payload, 0)                           // knn
	payload = binary.AppendUvarint(payload, 2)                           // 2 terms
	payload = binary.AppendUvarint(payload, 5)                           // term 5
	payload = binary.AppendUvarint(payload, 0)                           // delta 0 → duplicate
	if _, err := DecodeRequest(payload); err == nil {
		t.Fatal("duplicate term decoded without error")
	}
}

func TestDecodeResponseMalformed(t *testing.T) {
	valid := AppendResponse(nil, &Response{ID: 1, Status: StatusOK, Hits: []Hit{{ID: 1, Distance: 0.5, Shared: 2}}})
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"bad version", append([]byte{99}, valid[1:]...)},
		{"truncated", valid[:len(valid)-3]},
		{"trailing garbage", append(append([]byte{}, valid...), 1)},
		{"hit id past uint32", okResponse(1<<32+5, 2)},
		{"hit shared count past uint32", okResponse(1, 1<<32+2)},
	}
	if _, err := DecodeResponse(okResponse(1, 2)); err != nil {
		t.Fatalf("hand-encoded baseline: %v", err)
	}
	for _, tc := range cases {
		if _, err := DecodeResponse(tc.payload); err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
	}
}

// okResponse hand-encodes an OK response with one hit, so the id and
// shared count can be wider than AppendResponse's uint32 fields.
func okResponse(hitID, shared uint64) []byte {
	b := []byte{Version, byte(StatusOK), 1, 1}
	b = binary.AppendUvarint(b, hitID)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(0.5))
	b = binary.AppendUvarint(b, shared)
	return append(b, 0, 0, 0, 0, 0, 0, 0) // the seven stats
}

func TestTermDeltaEncodingIsCompact(t *testing.T) {
	// Clustered terms (the geodab case: shared geohash prefixes) must
	// encode in ~2 bytes each, not 5.
	terms := make([]uint32, 1000)
	base := uint32(0xABCD0000)
	for i := range terms {
		terms[i] = base + uint32(i*7)
	}
	payload := AppendRequest(nil, &Request{Op: OpSearchFP, MaxDistance: 1, Terms: terms})
	if perTerm := float64(len(payload)) / float64(len(terms)); perTerm > 2.5 {
		t.Errorf("clustered terms encode at %.1f bytes/term, want ≤ 2.5", perTerm)
	}
}
