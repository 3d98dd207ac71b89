package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Decoder reads a payload with bounds checking: the one reader under the
// client protocol's requests and responses (this package), the cluster's
// coordinator↔node frames and the write-ahead log's records. Element
// counts are checked against the bytes left before anything is allocated
// from them, so a hostile count costs nothing, and varints narrowed to a
// smaller type are range-checked, so an out-of-range value is an error
// instead of an alias of a real one.
//
// The first failure sticks: it empties the decoder, every later read
// returns a zero value, and Done reports that first failure. A decode
// therefore reads its fields straight through and checks once.
//
// Fixed-width values (U32, F64, and the U32s and Points lists) are
// little-endian, the byte order of the node frames and log records; the
// client protocol's floats are big-endian and read with F64BE.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a decoder reading p.
func NewDecoder(p []byte) Decoder { return Decoder{buf: p} }

// Fail records err unless an earlier failure already stuck, and ends the
// decode: whatever is left goes unread.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

// take consumes n bytes, or fails with ErrTruncated and returns nil.
func (d *Decoder) take(n int) []byte {
	if len(d.buf) < n {
		d.Fail(ErrTruncated)
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.Fail(ErrTruncated)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.Fail(ErrTruncated)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Uint32 reads an unsigned varint that must fit 32 bits; what names the
// field in the error.
func (d *Decoder) Uint32(what string) uint32 {
	v := d.Uvarint()
	if v > math.MaxUint32 {
		d.Fail(fmt.Errorf("wire: %s %d overflows uint32", what, v))
		return 0
	}
	return uint32(v)
}

// Int reads an unsigned varint that must fit an int; what names the
// field in the error.
func (d *Decoder) Int(what string) int {
	v := d.Uvarint()
	if v > math.MaxInt {
		d.Fail(fmt.Errorf("wire: %s %d overflows int", what, v))
		return 0
	}
	return int(v)
}

// U32 reads a 4-byte little-endian integer.
func (d *Decoder) U32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// F64 reads a float as its 8-byte little-endian IEEE 754 bits.
func (d *Decoder) F64() float64 {
	if b := d.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// F64BE reads a float as its 8-byte big-endian IEEE 754 bits.
func (d *Decoder) F64BE() float64 {
	if b := d.take(8); b != nil {
		return math.Float64frombits(binary.BigEndian.Uint64(b))
	}
	return 0
}

// Count reads an element count whose elements take at least size bytes
// apiece and checks they can fit in what is left.
func (d *Decoder) Count(size int) int {
	v := d.Uvarint()
	if v > uint64(len(d.buf)/size) {
		d.Fail(ErrTruncated)
		return 0
	}
	return int(v)
}

// Bytes reads a counted byte string, aliasing the payload.
func (d *Decoder) Bytes() []byte { return d.take(d.Count(1)) }

// U32s reads a counted list of 4-byte little-endian integers into into's
// storage when it fits.
func (d *Decoder) U32s(into []uint32) []uint32 {
	n := d.Count(4)
	if cap(into) < n {
		into = make([]uint32, n)
	}
	into = into[:n]
	for i := range into {
		into[i] = binary.LittleEndian.Uint32(d.buf[4*i:])
	}
	d.buf = d.buf[4*n:]
	return into
}

// Points reads a counted list of points, each its latitude and longitude
// as little-endian float bits, into into's storage when it fits.
func (d *Decoder) Points(into []Point) []Point {
	n := d.Count(16)
	if cap(into) < n {
		into = make([]Point, n)
	}
	into = into[:n]
	for i := range into {
		b := d.buf[16*i:]
		into[i] = Point{
			Lat: math.Float64frombits(binary.LittleEndian.Uint64(b)),
			Lon: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		}
	}
	d.buf = d.buf[16*n:]
	return into
}

// Rest consumes and returns everything left.
func (d *Decoder) Rest() []byte {
	b := d.buf
	d.buf = d.buf[len(d.buf):]
	return b
}

// Done ends a decode: it reports the first failure, or else rejects
// trailing bytes — a payload whose body outlasts its encoding is not one
// its encoder wrote. what names the payload in that error.
func (d *Decoder) Done(what any) error {
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("wire: %d trailing bytes after %v", len(d.buf), what)
	}
	return d.err
}

// AppendU32s appends a counted list of 4-byte little-endian integers, the
// form U32s reads.
func AppendU32s(dst []byte, vs []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// AppendPoints appends a counted list of points as little-endian float
// bits, the form Points reads: coordinates cross bit for bit. The client
// protocol's points are big-endian and encoded by its own codec.
func AppendPoints(dst []byte, pts []Point) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	for _, p := range pts {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Lat))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Lon))
	}
	return dst
}
