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
//	  sections uint32  (1 written; older writers wrote one per shard)
//	  per section:
//	    docs  uint32
//	    epoch uint64
//	    per document:
//	      id    uint32
//	      fingerprint set (bitmap serialization)
//	version 2 body (the format before sections):
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
// Loading merges every section into the one engine, with the sections'
// epochs summed, so a v2 snapshot and a v3 snapshot of any section count
// load alike. An ID held by two sections is rejected as a duplicate.
const (
	indexMagic      = 0x58494447
	indexVersionV2  = 2
	indexVersionV3  = 3
	indexHeaderSize = 9
)

// readSnapshotDocs parses a v2 or v3 snapshot, invoking emit once per
// document with its terms, ascending, in a slice of their exact size. It
// returns the snapshot's total mutation epoch (summed across
// v3 sections) and the bytes consumed. An error returned by emit
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
		sections := binary.LittleEndian.Uint32(hdr[5:9])
		if sections == 0 {
			return 0, n, fmt.Errorf("index: snapshot declares zero sections")
		}
		var secHdr [12]byte
		for range sections {
			if _, err := io.ReadFull(br, secHdr[:]); err != nil {
				return readErr(err)
			}
			n += int64(len(secHdr))
			count := binary.LittleEndian.Uint32(secHdr[0:4])
			epoch += binary.LittleEndian.Uint64(secHdr[4:12])
			if err := readDocs(count); err != nil {
				return 0, n, err
			}
		}
	default:
		return 0, n, fmt.Errorf("index: unsupported version %d", version)
	}
	return epoch, n, nil
}

// WriteTo snapshots the index in format v3 with one section carrying the
// document count, epoch and documents, under the read lock so the
// snapshot is a consistent cut. The extractor is not part of the
// snapshot: the loader must construct the index with the same
// configuration. It implements io.WriterTo.
func (ix *Inverted) WriteTo(w io.Writer) (int64, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	bw := bufio.NewWriterSize(w, 1<<20)
	var n int64
	writeErr := func(err error) (int64, error) {
		return n, fmt.Errorf("index: write: %w", err)
	}
	var hdr [indexHeaderSize + 12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], indexMagic)
	hdr[4] = indexVersionV3
	binary.LittleEndian.PutUint32(hdr[5:9], 1)
	binary.LittleEndian.PutUint32(hdr[9:13], uint32(len(ix.docs)))
	binary.LittleEndian.PutUint64(hdr[13:21], ix.epoch)
	if _, err := bw.Write(hdr[:]); err != nil {
		return writeErr(err)
	}
	n += int64(len(hdr))
	var idBuf [4]byte
	for id, terms := range ix.docs {
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
	if err := bw.Flush(); err != nil {
		return writeErr(err)
	}
	return n, nil
}

// ReadFrom loads a v2 or v3 snapshot into the index, replacing its
// contents and rebuilding the posting lists; the documents of every v3
// section merge into the one engine, and its epoch becomes the sections'
// sum. The new corpus is built aside and swapped in under one write lock,
// so a concurrent search ranks the old corpus or the new one, never a
// mixture. It implements io.ReaderFrom.
func (ix *Inverted) ReadFrom(r io.Reader) (int64, error) {
	// Raw points are not in the snapshot: a loaded index serves
	// fingerprint-ranked searches but cannot re-rank.
	fresh := New(ix.ex, false)
	epoch, n, err := readSnapshotDocs(r, func(id trajectory.ID, terms []uint32) error {
		if _, dup := fresh.docs[id]; dup {
			return fmt.Errorf("index: duplicate trajectory %d in snapshot", id)
		}
		fresh.insertLocked(id, terms, nil)
		return nil
	})
	if err != nil {
		return n, err
	}
	ix.mu.Lock()
	ix.docs, ix.cards, ix.postings, ix.points = fresh.docs, fresh.cards, fresh.postings, fresh.points
	ix.epoch = epoch
	ix.mu.Unlock()
	return n, nil
}
