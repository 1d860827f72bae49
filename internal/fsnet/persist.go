package fsnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"aggcache/internal/trace"
)

// Server metadata persistence: the interner's path table plus the
// aggregating cache's successor metadata, so a restarted server resumes
// with everything it learned about inter-file relationships.

var metaMagic = [4]byte{'A', 'G', 'F', 'S'}

const metaVersion = 1

// ErrBadServerMetadata is returned by LoadMetadata for foreign input.
var ErrBadServerMetadata = errors.New("fsnet: bad server metadata snapshot")

// SaveMetadata writes the server's learned state. Safe to call while
// serving; it briefly blocks request processing.
func (s *Server) SaveMetadata(w io.Writer) error {
	// aggMu freezes the successor metadata; the interner can still grow
	// concurrently (opens intern outside aggMu), but IDs are dense and
	// append-only, so snapshotting Len() up front yields a consistent
	// prefix — and any ID the frozen agg metadata references was interned
	// before its LearnFrom, hence before this lock, hence within Len().
	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	n := s.ids.Len()

	bw := bufio.NewWriter(w)
	if _, err := bw.Write(metaMagic[:]); err != nil {
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		_, err := bw.Write(tmp[:n])
		return err
	}
	if err := put(metaVersion); err != nil {
		return err
	}
	if err := put(uint64(n)); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		path := s.ids.Path(trace.FileID(i))
		if err := put(uint64(len(path))); err != nil {
			return err
		}
		if _, err := bw.WriteString(path); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return s.agg.SaveMetadata(w)
}

// LoadMetadata restores a snapshot written by SaveMetadata. Call it
// before serving traffic.
func (s *Server) LoadMetadata(r io.Reader) error {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("fsnet: read metadata magic: %w", err)
	}
	if magic != metaMagic {
		return ErrBadServerMetadata
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if version != metaVersion {
		return fmt.Errorf("fsnet: unsupported metadata version %d", version)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	ids := trace.NewInterner()
	buf := make([]byte, maxPath) // InternBytes copies a new path out
	for i := uint64(0); i < n; i++ {
		plen, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if plen == 0 || plen > maxPath {
			return fmt.Errorf("fsnet: metadata path length %d out of range", plen)
		}
		if _, err := io.ReadFull(br, buf[:plen]); err != nil {
			return err
		}
		ids.InternBytes(buf[:plen])
	}

	s.aggMu.Lock()
	defer s.aggMu.Unlock()
	if err := s.agg.LoadMetadata(br); err != nil {
		return err
	}
	s.ids = trace.WrapInterner(ids)
	return nil
}
