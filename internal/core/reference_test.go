package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"geodabs/internal/geo"
	"geodabs/internal/geohash"
)

// referenceGeodabs is the k-gram loop geodabsInto replaced, kept as its
// specification: per k-gram, the PrefixCover prefix is the k-gram's
// cover — the common prefix of its K cells — truncated to PrefixBits,
// falling back to the first cell when the cover is shallower, and the
// suffix is FNV-1a over the big-endian bytes of the K cell ids.
func referenceGeodabs(cfg Config, hashes []geohash.Hash) []uint32 {
	k, p := cfg.K, cfg.PrefixBits
	var out []uint32
	for i := 0; i+k <= len(hashes); i++ {
		kgram := hashes[i : i+k]
		var prefix geohash.Hash
		if cfg.Strategy == PrefixCentroid {
			var lat, lon float64
			for _, h := range kgram {
				c := h.Center()
				lat += c.Lat
				lon += c.Lon
			}
			prefix = geohash.Encode(geo.Point{Lat: lat / float64(k), Lon: lon / float64(k)}, p)
		} else {
			prefix = kgram[0]
			for _, h := range kgram[1:] {
				if prefix.Depth < p {
					break
				}
				// The deepest common prefix of the two cells.
				depth := min(prefix.Depth, h.Depth)
				diff := prefix.Bits<<(64-prefix.Depth) ^ h.Bits<<(64-h.Depth)
				depth = min(depth, uint8(bits.LeadingZeros64(diff)))
				prefix = geohash.Hash{Bits: prefix.Bits >> (prefix.Depth - depth), Depth: depth}
			}
			if prefix.Depth < p {
				prefix = kgram[0]
			}
			prefix = geohash.Hash{Bits: prefix.Bits >> (prefix.Depth - p), Depth: p}
		}
		suffix := fnv.New32a()
		for _, h := range kgram {
			suffix.Write(binary.BigEndian.AppendUint64(nil, h.Bits))
		}
		mask := uint32(1)<<(GeodabBits-p) - 1
		out = append(out, uint32(prefix.Bits)<<(GeodabBits-p)|suffix.Sum32()&mask)
	}
	return out
}

// checkGeodabs fails unless geodabsInto, appending to a non-empty dst,
// matches referenceGeodabs on hashes.
func checkGeodabs(t *testing.T, f *Fingerprinter, hashes []geohash.Hash) {
	t.Helper()
	got := f.geodabsInto([]uint32{7}, hashes)
	if want := append([]uint32{7}, referenceGeodabs(f.cfg, hashes)...); !slices.Equal(got, want) {
		t.Fatalf("geodabsInto over %d cells = %#x, reference %#x", len(hashes), got, want)
	}
}

// TestGeodabsMatchReference runs every tail length of the four-way suffix
// loop — K−1 to K+9 cells, 0 to 10 k-grams — on grids the fast lane
// takes (36 bits) and leaves to fnvCell (50 bits), under both prefix
// strategies. The cells drift along a walk and sometimes jump, so some
// k-grams' covers are deeper than the prefix and some shallower.
func TestGeodabsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, depth := range []uint8{36, 50} {
		for _, strategy := range []PrefixStrategy{PrefixCover, PrefixCentroid} {
			cfg := DefaultConfig()
			cfg.NormDepth, cfg.Strategy = depth, strategy
			f := MustFingerprinter(cfg)
			for kgrams := 0; kgrams <= 10; kgrams++ {
				for trial := 0; trial < 20; trial++ {
					hashes := make([]geohash.Hash, cfg.K-1+kgrams)
					p := geo.Point{Lat: -60 + 120*rng.Float64(), Lon: -170 + 340*rng.Float64()}
					for i := range hashes {
						if rng.Intn(8) == 0 {
							p.Lat, p.Lon = -p.Lat/2, -p.Lon/2
						}
						p = geo.Offset(p, rng.NormFloat64()*80, rng.NormFloat64()*80)
						hashes[i] = geohash.Encode(p, depth)
					}
					checkGeodabs(t, f, hashes)
				}
			}
		}
	}
}
