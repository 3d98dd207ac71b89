// Package geo provides geographic primitives shared by every other package:
// latitude/longitude points, great-circle (haversine) distances, local
// offsets and bounding boxes.
//
// Conventions: latitudes are in degrees in [-90, 90], longitudes in degrees
// in [-180, 180). Distances are in meters.
package geo

import (
	"fmt"
	"math"
)

// EarthRadius is the mean earth radius in meters (IUGG mean radius R1).
const EarthRadius = 6371008.8

// Point is a position on the earth expressed as a latitude/longitude pair,
// in degrees. The zero value is the point (0, 0) on the equator.
type Point struct {
	Lat float64
	Lon float64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.6f, %.6f)", p.Lat, p.Lon)
}

// Radians returns the latitude and longitude converted to radians.
func (p Point) Radians() (lat, lon float64) {
	return p.Lat * math.Pi / 180, p.Lon * math.Pi / 180
}

// Haversine returns the great-circle ground distance between a and b in
// meters, using the haversine formula from the paper (Eq. 2).
func Haversine(a, b Point) float64 {
	latA, lonA := a.Radians()
	latB, lonB := b.Radians()
	sinLat := math.Sin((latA - latB) / 2)
	sinLon := math.Sin((lonA - lonB) / 2)
	h := sinLat*sinLat + math.Cos(latA)*math.Cos(latB)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadius * math.Asin(math.Sqrt(h))
}

// Offset returns the point displaced from p by dNorth meters northward and
// dEast meters eastward, using a local equirectangular approximation. It is
// accurate for displacements up to a few kilometers, which is all the
// trajectory generator needs.
func Offset(p Point, dNorth, dEast float64) Point {
	dLat := dNorth / EarthRadius * 180 / math.Pi
	cos := math.Cos(p.Lat * math.Pi / 180)
	if math.Abs(cos) < 1e-12 {
		cos = 1e-12
	}
	dLon := dEast / (EarthRadius * cos) * 180 / math.Pi
	return Point{Lat: clampLat(p.Lat + dLat), Lon: NormalizeLon(p.Lon + dLon)}
}

// Interpolate returns the point at fraction f of the way from a to b, with
// f in [0, 1], using linear interpolation in latitude/longitude space. For
// the sub-kilometer edges of a road network this is indistinguishable from
// great-circle interpolation.
func Interpolate(a, b Point, f float64) Point {
	if f <= 0 {
		return a
	}
	if f >= 1 {
		return b
	}
	return Point{
		Lat: a.Lat + (b.Lat-a.Lat)*f,
		Lon: a.Lon + (b.Lon-a.Lon)*f,
	}
}

// NormalizeLon wraps a longitude in degrees into [-180, 180).
func NormalizeLon(lon float64) float64 {
	lon = math.Mod(lon+180, 360)
	if lon < 0 {
		lon += 360
	}
	return lon - 180
}

func clampLat(lat float64) float64 {
	if lat > 90 {
		return 90
	}
	if lat < -90 {
		return -90
	}
	return lat
}

// Box is an axis-aligned bounding box in latitude/longitude space.
// The zero value is an empty box: Extend must be called before use, or use
// NewBox.
type Box struct {
	MinLat, MaxLat float64
	MinLon, MaxLon float64
	nonEmpty       bool
}

// NewBox returns a box containing exactly the given points.
func NewBox(points ...Point) Box {
	var b Box
	for _, p := range points {
		b.Extend(p)
	}
	return b
}

// Extend grows the box to include p.
func (b *Box) Extend(p Point) {
	if !b.nonEmpty {
		b.MinLat, b.MaxLat = p.Lat, p.Lat
		b.MinLon, b.MaxLon = p.Lon, p.Lon
		b.nonEmpty = true
		return
	}
	b.MinLat = math.Min(b.MinLat, p.Lat)
	b.MaxLat = math.Max(b.MaxLat, p.Lat)
	b.MinLon = math.Min(b.MinLon, p.Lon)
	b.MaxLon = math.Max(b.MaxLon, p.Lon)
}

// Contains reports whether p lies inside the box (inclusive).
func (b Box) Contains(p Point) bool {
	return b.nonEmpty &&
		p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Center returns the box center. The center of an empty box is the zero
// point.
func (b Box) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}
