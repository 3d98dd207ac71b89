package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"geodabs/internal/bitmap"
	"geodabs/internal/trajectory"
)

// Index snapshot format (little endian):
//
//	magic   uint32  "GDIX" (0x58494447)
//	version uint8   3 (written), 2 (still read)
//	version 3 body:
//	  shards  uint32
//	  per shard:
//	    docs  uint32
//	    epoch uint64
//	    per document:
//	      id    uint32
//	      fingerprint set (bitmap serialization)
//	version 2 body (the former unsharded engine's format):
//	  docs    uint32
//	  epoch   uint64
//	  per document: id uint32 + fingerprint set
//
// Posting lists are not stored: they are the exact inverse of the document
// sets and are rebuilt on load, which halves the snapshot size and cannot
// desynchronize. Deletions are applied eagerly (no tombstones survive in
// memory), so a mutated index round-trips as exactly its live documents;
// the mutation epoch is persisted so snapshot lineages of a mutated index
// stay ordered. Version 1 (pre-mutation-API, no writer since PR 2) is
// rejected as unsupported.
//
// Loading re-places every document by its ID hash, so a v2 snapshot — or
// a v3 snapshot written with a different shard count — rebalances into
// the receiver's own layout, with the total epoch carried on shard 0.
// Placement is a pure function of (ID, shard count), so a duplicated ID
// always collides in its target shard and is rejected.
const (
	indexMagic      = 0x58494447
	indexVersionV2  = 2
	indexVersionV3  = 3
	indexHeaderSize = 9
)

// readSnapshotDocs parses a v2 or v3 snapshot, invoking emit once per
// document with its terms, ascending, in a slice of their exact size. It
// returns the snapshot's total mutation epoch (summed across
// v3 shard sections) and the bytes consumed. An error returned by emit
// aborts the parse and is returned verbatim.
func readSnapshotDocs(r io.Reader, emit func(id trajectory.ID, terms []uint32) error) (epoch uint64, n int64, err error) {
	br := bufio.NewReaderSize(r, 1<<20)
	readErr := func(err error) (uint64, int64, error) {
		return 0, n, fmt.Errorf("index: read: %w", err)
	}
	hdr := make([]byte, indexHeaderSize)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return readErr(err)
	}
	n += int64(len(hdr))
	if m := binary.LittleEndian.Uint32(hdr[0:4]); m != indexMagic {
		return 0, n, fmt.Errorf("index: bad magic %#x", m)
	}
	version := hdr[4]
	readDocs := func(count uint32) error {
		var idBuf [4]byte
		set := bitmap.New()
		for i := uint32(0); i < count; i++ {
			if _, err := io.ReadFull(br, idBuf[:]); err != nil {
				return fmt.Errorf("index: read: %w", err)
			}
			n += 4
			id := trajectory.ID(binary.LittleEndian.Uint32(idBuf[:]))
			m, err := set.ReadFrom(br)
			n += m
			if err != nil {
				return fmt.Errorf("index: read: %w", err)
			}
			if err := emit(id, set.ToSlice()); err != nil {
				return err
			}
		}
		return nil
	}
	switch version {
	case indexVersionV2:
		count := binary.LittleEndian.Uint32(hdr[5:9])
		var epochBuf [8]byte
		if _, err := io.ReadFull(br, epochBuf[:]); err != nil {
			return readErr(err)
		}
		n += 8
		epoch = binary.LittleEndian.Uint64(epochBuf[:])
		if err := readDocs(count); err != nil {
			return 0, n, err
		}
	case indexVersionV3:
		shards := binary.LittleEndian.Uint32(hdr[5:9])
		if shards == 0 {
			return 0, n, fmt.Errorf("index: snapshot declares zero shards")
		}
		var shHdr [12]byte
		for s := uint32(0); s < shards; s++ {
			if _, err := io.ReadFull(br, shHdr[:]); err != nil {
				return readErr(err)
			}
			n += int64(len(shHdr))
			count := binary.LittleEndian.Uint32(shHdr[0:4])
			epoch += binary.LittleEndian.Uint64(shHdr[4:12])
			if err := readDocs(count); err != nil {
				return 0, n, err
			}
		}
	default:
		return 0, n, fmt.Errorf("index: unsupported version %d", version)
	}
	return epoch, n, nil
}

// WriteTo snapshots the index in format v3: one section per shard, each
// carrying its document count, epoch and documents. All shard read locks
// are taken up front so the snapshot is a consistent cut — safe against
// deadlock because mutations never hold more than one shard lock. The
// extractor is not part of the snapshot: the loader must construct the
// index with the same configuration. It implements io.WriterTo.
func (s *Sharded) WriteTo(w io.Writer) (int64, error) {
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	defer func() {
		for _, sh := range s.shards {
			sh.mu.RUnlock()
		}
	}()
	bw := bufio.NewWriterSize(w, 1<<20)
	var n int64
	writeErr := func(err error) (int64, error) {
		return n, fmt.Errorf("index: write: %w", err)
	}
	hdr := make([]byte, indexHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], indexMagic)
	hdr[4] = indexVersionV3
	binary.LittleEndian.PutUint32(hdr[5:9], uint32(len(s.shards)))
	if _, err := bw.Write(hdr); err != nil {
		return writeErr(err)
	}
	n += int64(len(hdr))
	var shHdr [12]byte
	var idBuf [4]byte
	for _, sh := range s.shards {
		binary.LittleEndian.PutUint32(shHdr[0:4], uint32(len(sh.docs)))
		binary.LittleEndian.PutUint64(shHdr[4:12], sh.epoch)
		if _, err := bw.Write(shHdr[:]); err != nil {
			return writeErr(err)
		}
		n += int64(len(shHdr))
		for id, terms := range sh.docs {
			binary.LittleEndian.PutUint32(idBuf[:], uint32(id))
			if _, err := bw.Write(idBuf[:]); err != nil {
				return writeErr(err)
			}
			n += 4
			// FromSorted builds the containers Add would, so the bytes are
			// the format's whatever form holds the terms in memory.
			m, err := bitmap.FromSorted(*terms).WriteTo(bw)
			n += m
			if err != nil {
				return writeErr(err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return writeErr(err)
	}
	return n, nil
}

// ReadFrom loads a v2 or v3 snapshot into the index, replacing its
// contents and rebuilding the posting lists. Every document is re-placed
// by its ID hash, so v2 snapshots and v3 snapshots written with a
// different shard count rebalance into the receiver's layout. The
// snapshot's total epoch is carried on shard 0 (the sum across shards —
// the engine's Epoch — is what is preserved, and it stays monotone). The
// swap holds every shard's write lock at once, taken in index order like
// WriteTo's read locks (safe: mutations hold at most one), and bumps
// reloads, so a concurrent search ranks the old corpus or the new one,
// never a mixture. It implements io.ReaderFrom.
func (s *Sharded) ReadFrom(r io.Reader) (int64, error) {
	// Built in private shards first. Raw points are not in the snapshot: a
	// loaded index serves fingerprint-ranked searches but cannot re-rank.
	fresh := make([]*Inverted, len(s.shards))
	for i := range fresh {
		fresh[i] = newInverted()
	}
	epoch, n, err := readSnapshotDocs(r, func(id trajectory.ID, terms []uint32) error {
		sh := fresh[shardIndex(uint32(id), s.mask)]
		if _, dup := sh.docs[id]; dup {
			return fmt.Errorf("index: duplicate trajectory %d in snapshot", id)
		}
		sh.insertLocked(id, terms, nil)
		return nil
	})
	if err != nil {
		return n, err
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	for i, sh := range s.shards {
		sh.docs, sh.cards, sh.postings, sh.points = fresh[i].docs, fresh[i].cards, fresh[i].postings, fresh[i].points
		sh.epoch = 0
	}
	s.shards[0].epoch = epoch
	s.reloads.Add(1)
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
	return n, nil
}
