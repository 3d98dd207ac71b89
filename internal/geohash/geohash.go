// Package geohash implements bit-level geohashes (Niemeyer, 2008): a point
// is mapped to a sequence of bits that repeatedly bisect the
// longitude/latitude space, longitude first. The ordered list of cells at a
// given depth forms a Z-order space-filling curve, which the sharding layer
// exploits to place nearby cells on the same shard (paper §III-C, Fig 2).
//
// Unlike the common base32 representation, depths here are expressed in
// bits, so the paper's 32/34/36/38/40-bit normalization grids (Fig 8) and
// 16-bit shard prefixes are all first-class values.
package geohash

import (
	"fmt"
	"math"
	"strings"

	"geodabs/internal/geo"
)

// MaxDepth is the maximum supported precision in bits. 60 bits (30 bits per
// axis) resolves to under 4 cm at the equator, well below GPS accuracy.
const MaxDepth = 60

// Hash is a geohash of a given precision. Bits holds the hash right-aligned:
// the most significant of the Depth bits is the first (longitude) bisection.
// The zero value is the whole-earth cell (depth 0).
type Hash struct {
	Bits  uint64
	Depth uint8
}

// Encode returns the depth-bit geohash of the cell containing p.
// It panics if depth exceeds MaxDepth; latitudes and longitudes outside the
// valid domain are clamped.
func Encode(p geo.Point, depth uint8) Hash {
	if depth > MaxDepth {
		panic(fmt.Sprintf("geohash: depth %d exceeds MaxDepth %d", depth, MaxDepth))
	}
	full := interleave(lonBits(p.Lon), latBits(p.Lat))
	return Hash{Bits: full >> (64 - depth), Depth: depth}
}

// lonBits maps a longitude to a 32-bit fixed-point fraction of [-180, 180).
func lonBits(lon float64) uint32 {
	return fixed((lon + 180) / 360)
}

// latBits maps a latitude to a 32-bit fixed-point fraction of [-90, 90).
func latBits(lat float64) uint32 {
	return fixed((lat + 90) / 180)
}

func fixed(u float64) uint32 {
	v := u * (1 << 32)
	if v <= 0 {
		return 0
	}
	if v >= (1<<32)-1 {
		return math.MaxUint32
	}
	return uint32(v)
}

// interleave spreads x into the even-from-MSB positions (bit 63, 61, ...)
// and y into the odd positions (bit 62, 60, ...), so the top d bits of the
// result form the depth-d geohash.
func interleave(x, y uint32) uint64 {
	return spread(x)<<1 | spread(y)
}

// spread inserts a zero bit above each bit of v: bit i of v moves to
// bit 2i of the result.
func spread(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// Encoder encodes a stream of points at one fixed depth, exploiting the
// spatial coherence of trajectories: the cell of a point is a pure
// function of the top (depth+1)/2 bits of its fixed-point longitude and
// depth/2 bits of its latitude, so when those match the previous point's
// — the common case, points being meters apart and cells tens of meters
// wide — the previous hash is returned without re-running the bit
// interleave. Results are bit-identical to Encode. The zero value is not
// valid; construct with NewEncoder. An Encoder is not safe for concurrent
// use.
type Encoder struct {
	depth              uint8
	lonShift, latShift uint8
	x, y               uint32
	last               Hash
	primed             bool
}

// NewEncoder returns an encoder producing depth-bit hashes. It panics if
// depth exceeds MaxDepth.
func NewEncoder(depth uint8) Encoder {
	if depth > MaxDepth {
		panic(fmt.Sprintf("geohash: depth %d exceeds MaxDepth %d", depth, MaxDepth))
	}
	nLon, nLat := (depth+1)/2, depth/2
	return Encoder{depth: depth, lonShift: 32 - nLon, latShift: 32 - nLat}
}

// Encode returns the depth-bit geohash of the cell containing p,
// equal to Encode(p, depth).
func (e *Encoder) Encode(p geo.Point) Hash {
	x, y := lonBits(p.Lon), latBits(p.Lat)
	// Shifts of 32 (depth 0, or latitude at depth 1) must discard all
	// bits; uint32>>32 would be a no-op on some targets, so mask via
	// 64-bit shift semantics.
	xTop := uint64(x) >> e.lonShift
	yTop := uint64(y) >> e.latShift
	if e.primed && xTop == uint64(e.x) && yTop == uint64(e.y) {
		return e.last
	}
	e.x, e.y = uint32(xTop), uint32(yTop)
	e.last = Hash{Bits: interleave(x, y) >> (64 - e.depth), Depth: e.depth}
	e.primed = true
	return e.last
}

// compact is the inverse of spread: it extracts every other bit, bit 2i of
// v becoming bit i of the result.
func compact(v uint64) uint32 {
	x := v & 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return uint32(x)
}

// axisBits returns how many of the hash's bits refer to the longitude and
// latitude axes respectively.
func (h Hash) axisBits() (lon, lat uint8) {
	return (h.Depth + 1) / 2, h.Depth / 2
}

// Bounds returns the cell covered by the hash.
func (h Hash) Bounds() geo.Box {
	full := h.Bits << (64 - h.Depth)
	x, y := compact(full>>1), compact(full)
	nLon, nLat := h.axisBits()
	// Keep only the meaningful top bits of each axis.
	x >>= 32 - nLon
	y >>= 32 - nLat
	if nLon == 32 {
		nLon = 31 // avoid shift overflow below; depth ≤ 60 keeps us ≤ 30
	}
	lonW := 360 / float64(uint64(1)<<nLon)
	latW := 180 / float64(uint64(1)<<nLat)
	minLon := float64(x)*lonW - 180
	minLat := float64(y)*latW - 90
	b := geo.NewBox(
		geo.Point{Lat: minLat, Lon: minLon},
		geo.Point{Lat: minLat + latW, Lon: minLon + lonW},
	)
	return b
}

// Center returns the center point of the cell.
func (h Hash) Center() geo.Point {
	return h.Bounds().Center()
}

// Contains reports whether p falls inside the hash's cell.
func (h Hash) Contains(p geo.Point) bool {
	return Encode(p, h.Depth) == h
}

// String returns the hash as a binary string, e.g. "110101", matching the
// paper's Figure 2 notation. The whole-earth cell renders as "ε".
func (h Hash) String() string {
	if h.Depth == 0 {
		return "ε"
	}
	var sb strings.Builder
	sb.Grow(int(h.Depth))
	for i := int(h.Depth) - 1; i >= 0; i-- {
		if h.Bits>>uint(i)&1 == 1 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// CurvePosition returns the position of the cell on the Z-order
// space-filling curve at its depth, in [0, 2^depth). Cells that are close
// on the curve are close in space (the converse does not hold), which is
// the property the sharding strategy relies on (paper Fig 2b-c).
func (h Hash) CurvePosition() uint64 {
	return h.Bits
}
