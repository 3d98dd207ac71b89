package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"geodabs/internal/geo"
	"geodabs/internal/wal"
)

// syncDoc is a version 1 snapshot's doc: its field names and types are
// that format's gob encoding of one trajectory's shard state.
type syncDoc struct {
	ID        uint32
	Terms     []uint32
	Card      int
	Epoch     uint64
	Tombstone bool
	Points    []geo.Point
}

// record is the mutation record that recreates the doc, as a version 2
// snapshot stores it.
func (s *syncDoc) record() (wal.Record, error) {
	if s.Tombstone {
		return wal.Record{Op: wal.OpDelete, Epoch: s.Epoch, ID: s.ID}, nil
	}
	if s.Card < 0 || uint64(s.Card) > math.MaxUint32 {
		return wal.Record{}, fmt.Errorf("cluster: doc %d cardinality %d out of range", s.ID, s.Card)
	}
	rec := wal.Record{Op: wal.OpAdd, Epoch: s.Epoch, ID: s.ID, Card: uint32(s.Card), Terms: s.Terms, Points: s.Points}
	if s.Points != nil {
		rec.Op = wal.OpAddPoints
	}
	return rec, nil
}

// decodeSnapshotV1 reads the body of a version 1 node snapshot — a gob
// encoding of struct{ Docs []syncDoc }, written before node state moved
// to binary frames — handing each doc to fn as its record. It is
// read-only: snapshots are written as version 2 since, so a node
// recovered from a version 1 snapshot rewrites it at its next compaction.
// This is the package's only gob; it goes when no deployment can still
// hold a version 1 snapshot.
func decodeSnapshotV1(body []byte, fn func(*wal.Record) error) error {
	var snap struct{ Docs []syncDoc }
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&snap); err != nil {
		return fmt.Errorf("cluster: decode version 1 snapshot: %w", err)
	}
	for i := range snap.Docs {
		rec, err := snap.Docs[i].record()
		if err != nil {
			return err
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
	return nil
}
