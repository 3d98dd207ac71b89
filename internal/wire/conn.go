package wire

import (
	"bufio"
	"net"
)

// connReadBuffer sizes a connection's read buffer: a query's partial
// counts — a few thousand 8-byte pairs — or a burst of pipelined requests
// arrive in one read.
const connReadBuffer = 32 << 10

// retainLimit bounds the storage a connection keeps between frames. A
// frame buffer that grew past it for one wide frame is dropped once that
// frame has been consumed or written, so a connection pins at most this
// much per direction however large its largest frame was.
const retainLimit = 1 << 20

// Conn is one end of a framed connection: the client's and geodabsd's
// sockets, and the cluster's coordinator↔node and replication sockets.
// Frames are read through a buffered reader into one reused buffer and
// built in another, so a connection exchanges frame after frame without
// allocating once its buffers have grown to its frames.
//
// Reads and writes may run on different goroutines, but neither side is
// safe for concurrent use by several.
type Conn struct {
	nc    net.Conn
	r     *bufio.Reader
	limit int
	in    []byte // the last frame read, valid until the next read
	out   []byte // storage the next frames are built in
}

// NewConn frames nc, refusing frames whose payload exceeds limit.
func NewConn(nc net.Conn, limit int) *Conn {
	return &Conn{nc: nc, r: bufio.NewReaderSize(nc, connReadBuffer), limit: limit}
}

// NetConn returns the underlying connection, for deadlines and Close.
// Reading from it directly would skip bytes already buffered.
func (c *Conn) NetConn() net.Conn { return c.nc }

// ReadFrame returns the next frame's payload, valid until the next read.
func (c *Conn) ReadFrame() ([]byte, error) {
	if cap(c.in) > retainLimit {
		c.in = nil
	}
	p, err := ReadFrameInto(c.r, c.in, c.limit)
	if err != nil {
		return nil, err
	}
	c.in = p
	return p, nil
}

// Buffered reports how many bytes have arrived past the last frame read:
// nonzero when the peer has already sent more.
func (c *Conn) Buffered() int { return c.r.Buffered() }

// Buffer returns the write buffer, emptied: frames built in it
// (BeginFrame/EndFrame) are handed to WriteFrames.
func (c *Conn) Buffer() []byte { return c.out[:0] }

// BeginFrame opens a frame in the write buffer: append one payload to the
// returned slice and hand it to SendFrame.
func (c *Conn) BeginFrame() []byte { return BeginFrame(c.out[:0]) }

// SendFrame seals the frame BeginFrame opened and writes it. A payload
// over the connection's limit is ErrFrameTooLarge, and nothing is written.
func (c *Conn) SendFrame(b []byte) error {
	b, err := EndFrame(b, 0, c.limit)
	if err != nil {
		return err
	}
	return c.WriteFrames(b)
}

// WriteFrames writes b, whole frames the caller sealed — a batch of them,
// as a full sync or a reply coalescing writer sends — and keeps its
// storage as the write buffer for the next frames.
func (c *Conn) WriteFrames(b []byte) error {
	_, err := c.nc.Write(b)
	if cap(b) > retainLimit {
		b = nil
	}
	c.out = b[:0]
	return err
}
