package bitmap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

// Serialization format (little endian):
//
//	magic   uint32  "GDBM" (0x4d424447)
//	version uint8   1
//	chunks  uint32
//	per chunk:
//	  key   uint16
//	  kind  uint8   1=array 2=bitmap
//	  array:  count uint32, count × uint16
//	  bitmap: card  uint32, 1024 × uint64
//
// ReadFrom refuses any other kind.
const (
	magic         = 0x4d424447
	formatVersion = 1
)

const (
	kindArray  = 1
	kindBitmap = 2
)

// WriteTo serializes the bitmap. It implements io.WriterTo.
func (b *Bitmap) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	writeErr := func(err error) (int64, error) {
		return cw.n, fmt.Errorf("bitmap: write: %w", err)
	}
	if err := binary.Write(cw, binary.LittleEndian, uint32(magic)); err != nil {
		return writeErr(err)
	}
	if err := binary.Write(cw, binary.LittleEndian, uint8(formatVersion)); err != nil {
		return writeErr(err)
	}
	if err := binary.Write(cw, binary.LittleEndian, uint32(len(b.keys))); err != nil {
		return writeErr(err)
	}
	for i, key := range b.keys {
		if err := binary.Write(cw, binary.LittleEndian, key); err != nil {
			return writeErr(err)
		}
		if err := writeContainer(cw, b.containers[i]); err != nil {
			return writeErr(err)
		}
	}
	if err := bw.Flush(); err != nil {
		return writeErr(err)
	}
	return cw.n, nil
}

func writeContainer(w io.Writer, c container) error {
	switch c := c.(type) {
	case *arrayContainer:
		if err := binary.Write(w, binary.LittleEndian, uint8(kindArray)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(c.values))); err != nil {
			return err
		}
		return binary.Write(w, binary.LittleEndian, c.values)
	case *bitmapContainer:
		if err := binary.Write(w, binary.LittleEndian, uint8(kindBitmap)); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(c.card)); err != nil {
			return err
		}
		return binary.Write(w, binary.LittleEndian, c.words[:])
	default:
		return fmt.Errorf("unknown container type %T", c)
	}
}

// ReadFrom deserializes a bitmap previously written with WriteTo,
// replacing the receiver's contents. It implements io.ReaderFrom.
func (b *Bitmap) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{r: bufio.NewReader(r)}
	readErr := func(err error) (int64, error) {
		return cr.n, fmt.Errorf("bitmap: read: %w", err)
	}
	var m uint32
	if err := binary.Read(cr, binary.LittleEndian, &m); err != nil {
		return readErr(err)
	}
	if m != magic {
		return cr.n, fmt.Errorf("bitmap: bad magic %#x", m)
	}
	var version uint8
	if err := binary.Read(cr, binary.LittleEndian, &version); err != nil {
		return readErr(err)
	}
	if version != formatVersion {
		return cr.n, fmt.Errorf("bitmap: unsupported version %d", version)
	}
	var chunks uint32
	if err := binary.Read(cr, binary.LittleEndian, &chunks); err != nil {
		return readErr(err)
	}
	// Keys are strictly increasing uint16s: a larger count is corrupt, and
	// must be refused before the slices below are sized by it.
	if chunks > 1<<16 {
		return cr.n, fmt.Errorf("bitmap: %d chunks exceed the 16-bit key space", chunks)
	}
	b.Clear()
	b.keys = make([]uint16, 0, chunks)
	b.containers = make([]container, 0, chunks)
	var prevKey int = -1
	for i := uint32(0); i < chunks; i++ {
		var key uint16
		if err := binary.Read(cr, binary.LittleEndian, &key); err != nil {
			return readErr(err)
		}
		if int(key) <= prevKey {
			return cr.n, fmt.Errorf("bitmap: chunk keys out of order (%d after %d)", key, prevKey)
		}
		prevKey = int(key)
		c, err := readContainer(cr)
		if err != nil {
			return readErr(err)
		}
		b.keys = append(b.keys, key)
		b.containers = append(b.containers, c)
	}
	return cr.n, nil
}

func readContainer(r io.Reader) (container, error) {
	var kind uint8
	if err := binary.Read(r, binary.LittleEndian, &kind); err != nil {
		return nil, err
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	switch kind {
	case kindArray:
		if n > 1<<16 {
			return nil, fmt.Errorf("array container too large: %d", n)
		}
		a := &arrayContainer{values: make([]uint16, n)}
		if err := binary.Read(r, binary.LittleEndian, a.values); err != nil {
			return nil, err
		}
		for i := 1; i < len(a.values); i++ {
			if a.values[i] <= a.values[i-1] {
				return nil, fmt.Errorf("array container values out of order")
			}
		}
		return a, nil
	case kindBitmap:
		bc := newBitmapContainer()
		if err := binary.Read(r, binary.LittleEndian, bc.words[:]); err != nil {
			return nil, err
		}
		bc.card = int(n)
		if got := recount(bc); got != bc.card {
			return nil, fmt.Errorf("bitmap container cardinality mismatch: header %d, actual %d", bc.card, got)
		}
		return bc, nil
	default:
		return nil, fmt.Errorf("unknown container kind %d", kind)
	}
}

func recount(b *bitmapContainer) int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}
