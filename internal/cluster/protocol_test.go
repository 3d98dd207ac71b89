package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"geodabs/internal/geo"
	"geodabs/internal/rerank"
	"geodabs/internal/wal"
	"geodabs/internal/wire"
)

// appendResponse encodes any decoded reply: the node encodes each kind
// with its own appender (a query reply straight from its counter), so
// only the tests need the dispatch.
func appendResponse(dst []byte, r *response) []byte {
	switch r.Kind {
	case opMutate, opStale:
		return append(dst, byte(r.Kind))
	case opError:
		return appendError(dst, r.Err)
	case opQuery:
		start := len(dst)
		return endPartials(append(beginPartials(dst), r.Query.pairs...), start, r.Query.pruned)
	case opStats:
		return r.Stats.append(dst)
	case opRerank:
		return r.Rerank.append(dst)
	case opSync:
		return r.Sync.append(dst)
	case opSyncDoc:
		return appendSyncDoc(dst, r.Doc)
	default:
		return r.Event.append(dst)
	}
}

func decodeRequest(p []byte) (*request, error) {
	var req request
	return &req, req.decode(p)
}

func decodeResponse(p []byte) (*response, error) {
	var resp response
	return &resp, resp.decode(p)
}

var (
	goldenPoint = []geo.Point{{Lat: 1, Lon: -2}}
	goldenDoc   = wal.Record{Op: wal.OpAddPoints, Epoch: 5, ID: 3, Card: 2, Terms: []uint32{7}, Points: goldenPoint}
	goldenTomb  = wal.Record{Op: wal.OpDelete, Epoch: 6, ID: 4}
)

// TestFrameGoldenBytes pins every coordinator↔node frame kind by its
// bytes — the layouts docs/protocol.md spells out — and checks that each
// decodes and re-encodes to the same bytes.
func TestFrameGoldenBytes(t *testing.T) {
	queryReply := beginPartials(nil)
	queryReply = appendPartial(appendPartial(queryReply, 9, 3), 70000, 1)
	queryReply = endPartials(queryReply, 0, 1)
	stats := NodeStats{Terms: 1, Postings: 2, Docs: 3, Tombstones: 4, Epoch: 5, StableEpoch: 6, WALBytes: 7,
		WALSegments: 8, WALRecords: 9, WALSyncs: 10, WALLastSync: 11, FullSyncs: 12, Subscribers: 13,
		RetainedDocs: 14, RetainedPoints: 15, RetainedBytes: 16, RerankScored: 17, RerankSkipped: 300}
	for _, tc := range []struct {
		name    string
		payload []byte
		request bool
		want    string
	}{
		{"query request", appendRequest(nil, &request{Op: opQuery, CompactBelow: 7,
			Query: &queryRequest{Terms: []uint32{5, 300}, QueryCard: 12, MaxDistance: 0.5, Limit: 10}}), true,
			"02" + "07" + "0c" + "000000000000e03f" + "0a" + "02" + "05000000" + "2c010000"},
		{"query reply", queryReply, false,
			"02" + "01000000" + "0900000003000000" + "7011010001000000"},
		{"rerank request", appendRequest(nil, &request{Op: opRerank, CompactBelow: 3,
			Rerank: &rerankRequest{IDs: []uint32{4}, Query: goldenPoint, Metric: rerank.DTW, Limit: 5}}), true,
			"05" + "03" + "01" + "05" + "01" + "04000000" + "01" + "000000000000f03f" + "00000000000000c0"},
		{"rerank reply", (&rerankResponse{Scored: []scored{{ID: 4, Score: 0.25}}, Skipped: 2, Missing: []uint32{9}}).append(nil), false,
			"05" + "02" + "01" + "04000000" + "000000000000d03f" + "01" + "09000000"},
		{"mutate request", appendRequest(nil, &request{Op: opMutate, CompactBelow: 2,
			Mutate: &wal.Record{Op: wal.OpAdd, Epoch: 9, ID: 3, Card: 4, Terms: []uint32{10, 7}}}), true,
			"01" + "02" + "01" + "09" + "03" + "04" + "02" + "14" + "05"},
		{"mutate reply", []byte{byte(opMutate)}, false, "01"},
		{"stats request", appendRequest(nil, &request{Op: opStats, CompactBelow: 300}), true, "03" + "ac02"},
		{"stats reply", stats.append(nil), false, "03" + "0102030405060708090a0b0c0d0e0f1011" + "ac02"},
		{"sync request", appendRequest(nil, &request{Op: opSync}), true, "04" + "00"},
		{"sync header", (&syncHeader{Watermark: 6, Docs: 2}).append(nil), false, "04" + "06" + "02"},
		{"sync doc", appendSyncDoc(nil, &goldenDoc), false,
			"08" + "03" + "05" + "03" + "02" + "01" + "0e" + "01" + "000000000000f03f" + "00000000000000c0"},
		{"sync tombstone", appendSyncDoc(nil, &goldenTomb), false, "08" + "02" + "06" + "04"},
		{"stream event", (&replEvent{Record: wal.Record{Op: wal.OpDelete, Epoch: 8, ID: 2}, Watermark: 5}).append(nil), false,
			"09" + "05" + "02" + "08" + "02"},
		{"heartbeat", (&replEvent{Watermark: 300}).append(nil), false, "0a" + "ac02"},
		{"error", appendError(nil, "no"), false, "06" + "6e6f"},
		{"stale", []byte{byte(opStale)}, false, "07"},
	} {
		if got := hex.EncodeToString(tc.payload); got != tc.want {
			t.Errorf("%s: bytes %s, want %s", tc.name, got, tc.want)
			continue
		}
		var again []byte
		if tc.request {
			req, err := decodeRequest(tc.payload)
			if err != nil {
				t.Errorf("%s: decode: %v", tc.name, err)
				continue
			}
			again = appendRequest(nil, req)
		} else {
			resp, err := decodeResponse(tc.payload)
			if err != nil {
				t.Errorf("%s: decode: %v", tc.name, err)
				continue
			}
			again = appendResponse(nil, resp)
		}
		if !bytes.Equal(again, tc.payload) {
			t.Errorf("%s: re-encoded as %x", tc.name, again)
		}
	}
	// Framing is internal/wire's: a 4-byte big-endian length first.
	frame, err := wire.AppendFrame(nil, (&replEvent{Watermark: 300}).append(nil))
	if err != nil || hex.EncodeToString(frame) != "00000003"+"0aac02" {
		t.Errorf("framed heartbeat %x (%v)", frame, err)
	}
	// The decoded values, not just the bytes, are what was encoded.
	resp, err := decodeResponse(appendSyncDoc(nil, &goldenDoc))
	if err != nil || !reflect.DeepEqual(*resp.Doc, goldenDoc) {
		t.Errorf("sync doc decoded as %+v (%v), want %+v", resp.Doc, err, goldenDoc)
	}
	if resp, err := decodeResponse(stats.append(nil)); err != nil || !reflect.DeepEqual(resp.Stats, stats) {
		t.Errorf("stats decoded as %+v (%v), want %+v", resp.Stats, err, stats)
	}
}

// fuzzDecoder holds a decoder of bytes off a socket or disk to the
// properties internal/wire's fuzzers check, whatever arrives: no panic;
// no slice sized by a claimed count rather than by the bytes present
// (largest reports the biggest capacity in a decoded value); and a
// payload that decodes re-encodes to one that decodes to the same value
// (compared as encodings, so a NaN is equal to itself).
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

func sampleRequests() []*request {
	return []*request{
		{Op: opQuery, CompactBelow: 7, Query: &queryRequest{Terms: []uint32{5, 300}, QueryCard: 12, MaxDistance: 0.5}},
		{Op: opQuery, CompactBelow: 7, Query: &queryRequest{Terms: []uint32{5, 300}, QueryCard: 12, MaxDistance: 1, Limit: 10}},
		{Op: opRerank, CompactBelow: 3, Rerank: &rerankRequest{IDs: []uint32{4, 8}, Query: goldenPoint, Metric: rerank.DFD, Limit: 5}},
		{Op: opMutate, CompactBelow: 2, Mutate: &wal.Record{Op: wal.OpAddPoints, Epoch: 9, ID: 3, Card: 4, Terms: []uint32{10, 7}, Points: goldenPoint}},
		{Op: opMutate, Mutate: &wal.Record{Op: wal.OpDelete, Epoch: 10, ID: 3}},
		{Op: opStats, CompactBelow: 300},
		{Op: opSync},
	}
}

func FuzzNodeRequest(f *testing.F) {
	for _, req := range sampleRequests() {
		f.Add(appendRequest(nil, req))
	}
	fuzzDecoder(f, decodeRequest, appendRequest, func(r *request) int {
		n := 0
		if r.Query != nil {
			n = max(n, cap(r.Query.Terms))
		}
		if r.Rerank != nil {
			n = max(n, cap(r.Rerank.IDs), cap(r.Rerank.Query))
		}
		if r.Mutate != nil {
			n = max(n, cap(r.Mutate.Terms), cap(r.Mutate.Points))
		}
		return n
	})
}

func FuzzNodeResponse(f *testing.F) {
	partial := endPartials(appendPartial(beginPartials(nil), 9, 3), 0, 2)
	for _, p := range [][]byte{
		partial,
		{byte(opMutate)},
		{byte(opStale)},
		appendError(nil, "node is a read-only replica"),
		(&NodeStats{Terms: 4, Docs: 2, Epoch: 9, WALLastSync: 1500}).append(nil),
		(&rerankResponse{Scored: []scored{{ID: 4, Score: 0.25}}, Skipped: 1, Missing: []uint32{9}}).append(nil),
		(&syncHeader{Watermark: 6, Docs: 2}).append(nil),
		appendSyncDoc(nil, &goldenDoc),
		appendSyncDoc(nil, &goldenTomb),
		(&replEvent{Record: wal.Record{Op: wal.OpAdd, Epoch: 8, ID: 2, Card: 1, Terms: []uint32{3}}, Watermark: 5}).append(nil),
		(&replEvent{Watermark: 300}).append(nil),
	} {
		f.Add(p)
	}
	fuzzDecoder(f, decodeResponse, appendResponse, func(r *response) int {
		n := max(len(r.Err), len(r.Query.pairs), cap(r.Rerank.Scored), cap(r.Rerank.Missing),
			cap(r.Event.Terms), cap(r.Event.Points))
		if r.Doc != nil {
			n = max(n, cap(r.Doc.Terms), cap(r.Doc.Points))
		}
		return n
	})
}

// snapshotFile wraps a body in a valid header of the given version, so
// the fuzzer reaches the body decoders past the CRC.
func snapshotFile(version byte, body []byte) []byte {
	raw := binary.LittleEndian.AppendUint32(nil, snapshotMagic)
	raw = append(raw, version)
	raw = binary.LittleEndian.AppendUint32(raw, uint32(len(body)))
	raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum(body, snapshotCRC))
	return append(raw, body...)
}

// snapshotDocs decodes a snapshot file into its doc list.
func snapshotDocs(raw []byte) ([]wal.Record, error) {
	var docs []wal.Record
	err := decodeSnapshot(raw, func(d *wal.Record) error {
		docs = append(docs, *d)
		return nil
	})
	return docs, err
}

// FuzzNodeSnapshot holds loadSnapshot's decoding — the version 2 doc
// frames and the version 1 gob body alike — to fuzzDecoder's
// properties; whatever version it read, the re-encoding is version 2.
func FuzzNodeSnapshot(f *testing.F) {
	parent, err := os.ReadFile(filepath.Join("testdata", "parent-wal", snapshotName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent[4], parent[snapshotHeaderSize:])
	v2, err := encodeSnapshot([]wal.Record{goldenDoc, goldenTomb})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2[4], v2[snapshotHeaderSize:])
	f.Fuzz(func(t *testing.T, version byte, body []byte) {
		raw := snapshotFile(version, body)
		docs, err := snapshotDocs(raw)
		if err != nil {
			return
		}
		for _, d := range docs {
			if n := max(cap(d.Terms), cap(d.Points)); n > len(raw) {
				t.Fatalf("%d-byte snapshot decoded to a slice of capacity %d", len(raw), n)
			}
		}
		enc, err := encodeSnapshot(docs)
		if err != nil {
			t.Fatalf("re-encode of %+v: %v", docs, err)
		}
		again, err := snapshotDocs(enc)
		if err != nil {
			t.Fatalf("re-decode of %+v: %v", docs, err)
		}
		if enc2, err := encodeSnapshot(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip changed the docs (%v)\n first %+v\nsecond %+v", err, docs, again)
		}
	})
}

// copyDir copies the regular files of a fixture directory into a fresh
// temporary directory.
func copyDir(t *testing.T, from string) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSnapshotV2Fixture pins the version 2 snapshot by bytes.
// testdata/snap-v2/node.snap is what a node writes, on Close, after
// recovering testdata/parent-wal (a gob-era snapshot plus a log tail):
// loaded alone it recovers the same literal state, and a node doing the
// same today writes the same bytes.
func TestSnapshotV2Fixture(t *testing.T) {
	const fixture = "testdata/snap-v2/" + snapshotName
	node, err := StartNode("127.0.0.1:0", WithWALDir(copyDir(t, filepath.Dir(fixture))))
	if err != nil {
		t.Fatalf("recover from the version 2 snapshot: %v", err)
	}
	defer node.Kill()
	// Live: 1 (epoch 5, 4 points) and 4 (epoch 7, 2 points). Fences: 3
	// (epoch 6) and 2 (epoch 8).
	st := node.stats()
	if st.Docs != 2 || st.Tombstones != 2 || st.Epoch != 8 || st.RetainedPoints != 6 || st.Terms != 4 || st.Postings != 5 {
		t.Errorf("recovered Docs=%d Tombstones=%d Epoch=%d RetainedPoints=%d Terms=%d Postings=%d, want 2, 2, 8, 6, 4, 5",
			st.Docs, st.Tombstones, st.Epoch, st.RetainedPoints, st.Terms, st.Postings)
	}
	var reply response
	if err := reply.decode(node.query(nil, &queryRequest{Terms: []uint32{5, 9}})); err != nil {
		t.Fatal(err)
	}
	if ids, counts := pairsOf(reply.Query); !reflect.DeepEqual(ids, []uint32{1, 4}) || !reflect.DeepEqual(counts, []uint32{1, 2}) {
		t.Errorf("query {5, 9} = IDs %v counts %v, want [1 4] [1 2]", ids, counts)
	}

	dir := copyDir(t, "testdata/parent-wal")
	parent, err := StartNode("127.0.0.1:0", WithWALDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, snapshotName))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("today's snapshot of the parent's state differs from %s\ngot  %x\nwant %x", fixture, got, want)
	}
}

// TestDecodeRejectsIntOverflow: a count or a cap past the int range is an
// error, never narrowed to a negative int. Round-trip fuzzing cannot see
// such a narrowing — the value re-encodes to the same bytes — and a sync
// header claiming 2⁶³ docs once decoded as −2⁶³ of them: the replica read
// none and installed an empty state at the primary's watermark.
func TestDecodeRejectsIntOverflow(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<63)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	half := binary.LittleEndian.AppendUint64(nil, math.Float64bits(0.5))
	for _, tc := range []struct {
		name    string
		payload []byte
		request bool
	}{
		{"sync header docs", cat([]byte{byte(opSync), 6}, huge), false},
		{"query card", cat([]byte{byte(opQuery), 0}, huge, half, []byte{0, 0}), true},
		{"query limit", cat([]byte{byte(opQuery), 0, 12}, half, huge, []byte{0}), true},
		{"rerank limit", cat([]byte{byte(opRerank), 0, byte(rerank.DTW)}, huge, []byte{0, 0}), true},
		{"rerank skipped", cat([]byte{byte(opRerank)}, huge, []byte{0, 0}), false},
		{"stats docs", cat([]byte{byte(opStats), 1, 2}, huge, bytes.Repeat([]byte{0}, 15)), false},
	} {
		var err error
		if tc.request {
			_, err = decodeRequest(tc.payload)
		} else {
			_, err = decodeResponse(tc.payload)
		}
		if err == nil {
			t.Errorf("%s of 2⁶³ decoded without error", tc.name)
		}
		// The same frame with a small value in its place decodes.
		ok := bytes.Replace(tc.payload, huge, binary.AppendUvarint(nil, 5), 1)
		if tc.request {
			_, err = decodeRequest(ok)
		} else {
			_, err = decodeResponse(ok)
		}
		if err != nil {
			t.Errorf("%s of 5: %v", tc.name, err)
		}
	}
}
