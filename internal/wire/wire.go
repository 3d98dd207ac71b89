// Package wire defines the geodabsd client/server protocol: a compact
// length-prefixed binary encoding shared by the server (internal/server)
// and the Go client (geodabs/client). The full specification — framing,
// op codes, status codes, field layouts, and versioning rules — lives in
// docs/protocol.md; this package is its single Go implementation, so the
// two sides can never disagree on the bytes. Its Conn is the one framed
// connection that the client, the server and the cluster's internal
// coordinator↔node protocol all read and write through; its Decoder the
// one bounds-checked reader of their payloads and of the write-ahead
// log's records; its Pool the one pooled request/reply call of the client
// and of the coordinator.
//
// # Framing
//
// Every message is one frame: a 4-byte big-endian payload length followed
// by the payload. Payloads are capped at MaxFrame; a peer receiving a
// longer announcement must drop the connection (the stream cannot be
// resynchronized). The first payload byte is the protocol version
// (Version); a peer receiving an unknown version replies
// StatusBadRequest and drops the connection.
//
// # Requests and responses
//
// A connection carries a sequential stream of request frames from the
// client and response frames from the server. Requests carry a
// client-chosen ID echoed in the response, so a client may pipeline
// several requests on one connection and match responses even if a
// server chooses to reorder them (the reference server may complete
// admitted requests out of order under pipelining).
//
// Integers are unsigned varints (binary.Uvarint) unless noted; float64s
// are 8-byte big-endian IEEE 754 bit patterns. Fingerprint term sets are
// sorted ascending and delta-encoded (first term absolute, every
// subsequent term a strictly positive delta), which keeps the dominant
// payload of the thin-client search op small on the wire.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"geodabs/internal/geo"
)

// Version is the protocol version this package speaks, carried as the
// first byte of every payload. See docs/protocol.md for the rules on
// bumping it.
const Version = 1

// MaxFrame caps a frame payload. Large enough for a raw trajectory of
// ~500k points or a degenerate fingerprint; small enough that a
// malformed length prefix cannot OOM the receiver.
const MaxFrame = 16 << 20

// Op discriminates request types.
type Op uint8

const (
	// OpPing is a health check: empty body, empty OK response.
	OpPing Op = 1
	// OpSearchFP is the thin-client search: the client winnowed locally
	// and ships a prepared fingerprint term set, never raw GPS points.
	OpSearchFP Op = 2
	// OpSearch is the raw-trajectory search: the server runs fingerprint
	// extraction on the shipped points.
	OpSearch Op = 3
	// OpUpsert indexes a raw trajectory, replacing any previous version.
	OpUpsert Op = 4
	// OpDelete removes a trajectory by ID.
	OpDelete Op = 5
	// OpSearchRerank is the raw-trajectory search with exact refinement:
	// the server re-ranks the fingerprint shortlist with the named
	// metric (Request.Metric) before replying, like
	// geodabs.WithExactRerank. Requires an engine built with point
	// retention.
	OpSearchRerank Op = 6
)

// Built-in exact rerank metrics addressable on the wire
// (Request.Metric of OpSearchRerank).
const (
	MetricDTW uint8 = 1
	MetricDFD uint8 = 2
)

// String names the op for metrics labels and errors.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpSearchFP:
		return "search_fp"
	case OpSearch:
		return "search"
	case OpUpsert:
		return "upsert"
	case OpDelete:
		return "delete"
	case OpSearchRerank:
		return "search_rerank"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Status is the response disposition.
type Status uint8

const (
	// StatusOK carries the op's result body.
	StatusOK Status = 0
	// StatusError is a server-side failure; the body is a message.
	StatusError Status = 1
	// StatusOverloaded reports admission-control shedding: the request
	// was NOT executed and the client may retry elsewhere or later,
	// ideally with backoff. The body is empty.
	StatusOverloaded Status = 2
	// StatusNotFound reports a mutation aimed at an unknown trajectory.
	StatusNotFound Status = 3
	// StatusDeadlineExceeded reports that the request's deadline expired
	// before it completed (it may have been partially executed for
	// mutations; searches are side-effect free).
	StatusDeadlineExceeded Status = 4
	// StatusShuttingDown reports that the server is draining and admits
	// no new work. The request was not executed.
	StatusShuttingDown Status = 5
	// StatusBadRequest reports an undecodable or semantically invalid
	// request; the body is a message. Retrying the same bytes cannot
	// succeed.
	StatusBadRequest Status = 6
)

// String names the status for metrics labels and errors.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusError:
		return "error"
	case StatusOverloaded:
		return "overloaded"
	case StatusNotFound:
		return "not_found"
	case StatusDeadlineExceeded:
		return "deadline_exceeded"
	case StatusShuttingDown:
		return "shutting_down"
	case StatusBadRequest:
		return "bad_request"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Errors shared by both codec directions.
var (
	// ErrFrameTooLarge reports a length prefix above the frame cap
	// (MaxFrame here). The connection must be dropped: the stream cannot
	// be resynchronized.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrBadVersion reports an unknown protocol version byte.
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	// ErrTruncated reports a payload shorter than its own encoding
	// claims.
	ErrTruncated = errors.New("wire: truncated payload")
)

// Point is one latitude/longitude position in degrees: the engine's own
// point type, so a decoded trajectory is handed over without a copy
// (geo imports only fmt and math, wire stays near-leaf).
type Point = geo.Point

// Request is the decoded form of one client request. Fields beyond the
// header are op-specific; unused ones are zero.
type Request struct {
	// ID is echoed verbatim in the response, matching pipelined
	// responses back to their requests.
	ID uint64
	// Op selects the operation.
	Op Op
	// DeadlineMS is the client's remaining per-request budget in
	// milliseconds; 0 means "no client deadline" (the server still
	// applies its own cap).
	DeadlineMS uint64

	// Search parameters (OpSearchFP, OpSearch).
	MaxDistance float64
	Limit       int
	KNN         int
	// Terms is the prepared fingerprint term set, sorted ascending
	// (OpSearchFP).
	Terms []uint32
	// Points is the raw trajectory (OpSearch, OpSearchRerank, OpUpsert).
	Points []Point
	// Metric names the built-in exact metric of an OpSearchRerank:
	// MetricDTW or MetricDFD.
	Metric uint8
	// TrajID identifies the trajectory (OpUpsert, OpDelete).
	TrajID uint32
}

// Hit is one ranked result on the wire.
type Hit struct {
	ID       uint32
	Distance float64
	Shared   uint32
}

// Stats is the search execution statistics block, mirroring the public
// SearchStats fields that make sense across the wire.
type Stats struct {
	Candidates   uint64
	Pruned       uint64
	NodePruned   uint64
	WirePartials uint64
	Shards       uint64
	Nodes        uint64
	ElapsedUS    uint64
}

// Response is the decoded form of one server response.
type Response struct {
	ID     uint64
	Status Status
	// Message carries human-readable detail for StatusError,
	// StatusBadRequest and StatusNotFound.
	Message string
	// Hits and Stats carry a successful search's results.
	Hits  []Hit
	Stats Stats
}

// AppendFrame appends the 4-byte length prefix and the payload to dst.
// The payload must not exceed MaxFrame.
func AppendFrame(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	return EndFrame(append(BeginFrame(dst), payload...), len(dst), MaxFrame)
}

// BeginFrame reserves a frame's length prefix at the end of dst. Append
// the payload after it and seal the frame with EndFrame: the payload is
// then encoded in place rather than copied into its frame.
func BeginFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0) }

// EndFrame fills in the length prefix of the frame that BeginFrame opened
// at offset start of dst. A payload over limit — MaxFrame on this
// protocol; the cluster's internal frames carry a larger cap — is
// ErrFrameTooLarge, with dst cut back to start.
func EndFrame(dst []byte, start, limit int) ([]byte, error) {
	n := len(dst) - start - 4
	if n > limit {
		return dst[:start], ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

// ReadFrame reads one length-prefixed payload. It enforces MaxFrame
// before allocating, so a hostile length prefix costs nothing.
func ReadFrame(r io.Reader) ([]byte, error) { return ReadFrameInto(r, nil, MaxFrame) }

// ReadFrameInto is ReadFrame with the payload capped at limit, and read
// into buf's storage when it fits and into a fresh slice otherwise, so a
// connection reading frame after frame allocates only when a frame
// outgrows every earlier one. The payload aliases that storage.
func ReadFrameInto(r io.Reader, buf []byte, limit int) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if uint64(n) > uint64(limit) {
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// AppendRequest encodes a request payload (without framing) onto dst.
func AppendRequest(dst []byte, req *Request) []byte {
	dst = append(dst, Version, byte(req.Op))
	dst = binary.AppendUvarint(dst, req.ID)
	dst = binary.AppendUvarint(dst, req.DeadlineMS)
	switch req.Op {
	case OpPing:
	case OpSearchFP:
		dst = appendSearchParams(dst, req)
		dst = appendTerms(dst, req.Terms)
	case OpSearch:
		dst = appendSearchParams(dst, req)
		dst = appendPointsBE(dst, req.Points)
	case OpSearchRerank:
		dst = appendSearchParams(dst, req)
		dst = append(dst, req.Metric)
		dst = appendPointsBE(dst, req.Points)
	case OpUpsert:
		dst = binary.AppendUvarint(dst, uint64(req.TrajID))
		dst = appendPointsBE(dst, req.Points)
	case OpDelete:
		dst = binary.AppendUvarint(dst, uint64(req.TrajID))
	}
	return dst
}

func appendSearchParams(dst []byte, req *Request) []byte {
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(req.MaxDistance))
	dst = binary.AppendUvarint(dst, uint64(req.Limit))
	dst = binary.AppendUvarint(dst, uint64(req.KNN))
	return dst
}

// appendTerms delta-encodes a sorted ascending term set.
func appendTerms(dst []byte, terms []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(terms)))
	prev := uint32(0)
	for i, t := range terms {
		if i == 0 {
			dst = binary.AppendUvarint(dst, uint64(t))
		} else {
			dst = binary.AppendUvarint(dst, uint64(t-prev))
		}
		prev = t
	}
	return dst
}

func appendPointsBE(dst []byte, pts []Point) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	for _, p := range pts {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Lat))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.Lon))
	}
	return dst
}

// DecodeRequest parses a request payload produced by AppendRequest.
func DecodeRequest(payload []byte) (*Request, error) {
	d := NewDecoder(payload)
	decodeVersion(&d)
	req := &Request{Op: Op(d.Byte()), ID: d.Uvarint(), DeadlineMS: d.Uvarint()}
	switch req.Op {
	case OpPing:
	case OpSearchFP:
		decodeSearchParams(&d, req)
		req.Terms = decodeTerms(&d)
	case OpSearch:
		decodeSearchParams(&d, req)
		req.Points = decodePointsBE(&d)
	case OpSearchRerank:
		decodeSearchParams(&d, req)
		if req.Metric = d.Byte(); req.Metric != MetricDTW && req.Metric != MetricDFD {
			d.Fail(fmt.Errorf("wire: unknown rerank metric %d", req.Metric))
		}
		req.Points = decodePointsBE(&d)
	case OpUpsert:
		req.TrajID = d.Uint32("trajectory id")
		req.Points = decodePointsBE(&d)
	case OpDelete:
		req.TrajID = d.Uint32("trajectory id")
	default:
		d.Fail(fmt.Errorf("wire: unknown op %d", req.Op))
	}
	if err := d.Done(req.Op); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeVersion reads the version byte every payload opens with.
func decodeVersion(d *Decoder) {
	if v := d.Byte(); v != Version {
		d.Fail(fmt.Errorf("%w: got %d, want %d", ErrBadVersion, v, Version))
	}
}

func decodeSearchParams(d *Decoder, req *Request) {
	req.MaxDistance = d.F64BE()
	limit, knn := d.Uvarint(), d.Uvarint()
	if limit > math.MaxInt32 || knn > math.MaxInt32 {
		d.Fail(errors.New("wire: limit/knn out of range"))
	}
	req.Limit, req.KNN = int(limit), int(knn)
}

func decodeTerms(d *Decoder) []uint32 {
	terms := make([]uint32, d.Count(1))
	prev := uint64(0)
	for i := range terms {
		v := d.Uvarint()
		if i > 0 && v == 0 {
			d.Fail(errors.New("wire: zero term delta (set not strictly ascending)"))
			break
		}
		if v > math.MaxUint32-prev { // before the add: a huge delta must not wrap uint64
			d.Fail(errors.New("wire: term overflows uint32"))
			break
		}
		prev += v
		terms[i] = uint32(prev)
	}
	return terms
}

func decodePointsBE(d *Decoder) []Point {
	pts := make([]Point, d.Count(16))
	for i := range pts {
		pts[i] = Point{Lat: d.F64BE(), Lon: d.F64BE()}
	}
	return pts
}

// AppendResponse encodes a response payload (without framing) onto dst.
func AppendResponse(dst []byte, resp *Response) []byte {
	dst = append(dst, Version, byte(resp.Status))
	dst = binary.AppendUvarint(dst, resp.ID)
	switch resp.Status {
	case StatusOK:
		dst = binary.AppendUvarint(dst, uint64(len(resp.Hits)))
		for _, h := range resp.Hits {
			dst = binary.AppendUvarint(dst, uint64(h.ID))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(h.Distance))
			dst = binary.AppendUvarint(dst, uint64(h.Shared))
		}
		s := &resp.Stats
		for _, v := range [...]uint64{s.Candidates, s.Pruned, s.NodePruned, s.WirePartials, s.Shards, s.Nodes, s.ElapsedUS} {
			dst = binary.AppendUvarint(dst, v)
		}
	default:
		dst = binary.AppendUvarint(dst, uint64(len(resp.Message)))
		dst = append(dst, resp.Message...)
	}
	return dst
}

// DecodeResponse parses a response payload produced by AppendResponse.
func DecodeResponse(payload []byte) (*Response, error) {
	resp := &Response{}
	if err := DecodeResponseInto(resp, payload); err != nil {
		return nil, err
	}
	return resp, nil
}

// DecodeResponseInto is DecodeResponse into resp, whose Hits storage it
// reuses when the reply's hits fit: a caller decoding reply after reply
// into one value allocates hits only when a reply outgrows every earlier
// one. The decoded Hits alias that storage. On error, resp's contents are
// unspecified.
func DecodeResponseInto(resp *Response, payload []byte) error {
	d := NewDecoder(payload)
	decodeVersion(&d)
	*resp = Response{Status: Status(d.Byte()), ID: d.Uvarint(), Hits: resp.Hits[:0]}
	switch resp.Status {
	case StatusOK:
		n := d.Count(10)
		if cap(resp.Hits) < n {
			resp.Hits = make([]Hit, n)
		}
		resp.Hits = resp.Hits[:n]
		for i := range resp.Hits {
			resp.Hits[i] = Hit{ID: d.Uint32("hit id"), Distance: d.F64BE(), Shared: d.Uint32("hit shared count")}
		}
		s := &resp.Stats
		for _, p := range [...]*uint64{&s.Candidates, &s.Pruned, &s.NodePruned, &s.WirePartials, &s.Shards, &s.Nodes, &s.ElapsedUS} {
			*p = d.Uvarint()
		}
	default:
		resp.Message = string(d.Bytes())
	}
	return d.Done("response")
}
