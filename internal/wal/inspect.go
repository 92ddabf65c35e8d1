package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"p2prange/internal/transport"
)

// Offline inspection (walctl) and segment backup/restore. Everything
// here works on closed directories — no Log required — so an operator
// can check a backup without booting a peer.

// FileReport is one file's verification outcome.
type FileReport struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"` // "wal" or "segment"
	Seq     uint64 `json:"seq"`
	Bytes   int64  `json:"bytes"`
	Records int    `json:"records"`
	// Damage is empty for a fully valid file. A WAL file with a torn
	// tail reports it here: recovery would truncate and survive it, but
	// a cleanly shut down peer or a backup should verify clean.
	Damage string `json:"damage,omitempty"`
	// FooterDamage (segments only) means the read-path accelerator after
	// the seal failed its checksum. Boot survives it with a full-scan
	// index rebuild, but the file is not the one compaction wrote.
	FooterDamage string `json:"footer_damage,omitempty"`
}

// DirReport is a whole data directory's verification outcome.
type DirReport struct {
	Files   []FileReport `json:"files"`
	Records int          `json:"records"`
	Damaged int          `json:"damaged"` // files with Damage or FooterDamage
}

// Clean reports whether every file verified completely.
func (r DirReport) Clean() bool { return r.Damaged == 0 }

// InspectDir CRC-walks every WAL record and segment record+footer in
// dir. If dump is non-nil it receives every valid record in replay
// order per file (segments first would lie about ordering, so files are
// reported in name order and the caller sees which file each record
// came from). The returned error covers only scan-level failures;
// per-file damage lands in the report.
func InspectDir(dir string, dump func(file string, r Record)) (DirReport, error) {
	var rep DirReport
	walSeqs, segSeqs, err := scanDir(dir)
	if err != nil {
		return rep, err
	}
	for _, seq := range segSeqs {
		fr := inspectSegment(dir, seq, dump)
		rep.Records += fr.Records
		if fr.Damage != "" || fr.FooterDamage != "" {
			rep.Damaged++
		}
		rep.Files = append(rep.Files, fr)
	}
	for _, seq := range walSeqs {
		fr := inspectWAL(dir, seq, dump)
		rep.Records += fr.Records
		if fr.Damage != "" {
			rep.Damaged++
		}
		rep.Files = append(rep.Files, fr)
	}
	return rep, nil
}

func inspectWAL(dir string, seq uint64, dump func(string, Record)) FileReport {
	path := walPath(dir, seq)
	fr := FileReport{Name: filepath.Base(path), Kind: "wal", Seq: seq}
	data, err := os.ReadFile(path)
	if err != nil {
		fr.Damage = err.Error()
		return fr
	}
	fr.Bytes = int64(len(data))
	body, err := parseHeader(data, magicWAL, seq)
	if err != nil {
		fr.Damage = err.Error()
		return fr
	}
	n, werr := WalkBuffer(body, func(r Record) error {
		fr.Records++
		if dump != nil {
			dump(fr.Name, r)
		}
		return nil
	})
	if werr != nil {
		fr.Damage = fmt.Sprintf("%v (%d trailing byte(s) after last valid record)", werr, len(body)-n)
	}
	return fr
}

func inspectSegment(dir string, seq uint64, dump func(string, Record)) FileReport {
	path := segPath(dir, seq)
	fr := FileReport{Name: filepath.Base(path), Kind: "segment", Seq: seq}
	data, err := os.ReadFile(path)
	if err != nil {
		fr.Damage = err.Error()
		return fr
	}
	fr.Bytes = int64(len(data))
	body, err := parseHeader(data, magicSEG, seq)
	if err != nil {
		fr.Damage = err.Error()
		return fr
	}
	recStart := int64(len(data) - len(body))

	// Record stream: every frame CRC-checked up to and including the
	// seal, exactly the boot acceptance test.
	sealed := false
	var sealEnd int64
	var count uint64
	n, werr := WalkBuffer(body, func(r Record) error {
		if r.Op == opSeal {
			sealed, count = true, r.Count
			return errSealStop
		}
		fr.Records++
		if dump != nil {
			dump(fr.Name, r)
		}
		return nil
	})
	sealEnd = recStart + int64(n)
	switch {
	case werr != nil && !errors.Is(werr, errSealStop):
		fr.Damage = werr.Error()
		return fr
	case !sealed:
		fr.Damage = "unsealed segment"
		return fr
	case count != uint64(fr.Records):
		fr.Damage = fmt.Sprintf("seal count %d, walked %d records", count, fr.Records)
		return fr
	}
	// The seal frame itself: WalkBuffer stops at its start when fn
	// aborts, but it already CRC-validated the frame — just measure it to
	// find where the footer begins.
	c := transport.NewCursor(data[sealEnd:])
	length := c.Uvarint()
	hdr := len(data[sealEnd:]) - c.Len()
	footerStart := sealEnd + int64(hdr) + int64(length)
	if ferr := verifyFooter(data, recStart, footerStart, fr.Records); ferr != nil {
		fr.FooterDamage = ferr.Error()
	}
	return fr
}

// verifyFooter checks the index/bloom footer between footerStart and
// EOF: trailer magic and bounds, footer checksum, decoded contents, and
// the record count cross-check against the walked stream.
func verifyFooter(data []byte, recStart, footerStart int64, records int) error {
	if int64(len(data)) < footerStart+segTrailerLen {
		return fmt.Errorf("missing footer (%d byte(s) after seal)", int64(len(data))-footerStart)
	}
	tr := data[len(data)-segTrailerLen:]
	if !bytes.Equal(tr[12:16], magicIdx) {
		return fmt.Errorf("trailer magic mismatch")
	}
	footerOff := int64(binary.LittleEndian.Uint64(tr[0:8]))
	footerLen := int64(binary.LittleEndian.Uint32(tr[8:12]))
	if footerOff != footerStart || footerLen < 5 || footerOff+footerLen+segTrailerLen != int64(len(data)) {
		return fmt.Errorf("trailer bounds (footer at %d+%d, seal ends at %d, file %d)",
			footerOff, footerLen, footerStart, len(data))
	}
	x, err := parseFooter(data[footerOff:footerOff+footerLen], recStart, footerOff)
	if err != nil {
		return err
	}
	if x.count != records {
		return fmt.Errorf("footer count %d, walked %d records", x.count, records)
	}
	return nil
}

// BackupSegment copies the newest sealed segment into dstDir — chunked
// through the same reader snapshot seeding uses, verified as a complete
// bootable segment before the rename, older backups pruned after. A
// no-op (seq, 0, nil) when dstDir already holds a verified copy or no
// segment exists yet. The result doubles as a restore source for
// `walctl restore`.
func (l *Log) BackupSegment(dstDir string) (seq uint64, copied int64, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		var size int64
		var ok bool
		seq, size, ok = l.SegmentInfo()
		if !ok {
			return 0, 0, nil
		}
		dst := segPath(dstDir, seq)
		if fi, err := os.Stat(dst); err == nil && fi.Size() == size {
			return seq, 0, nil
		}
		if err := os.MkdirAll(dstDir, 0o755); err != nil {
			return seq, 0, fmt.Errorf("wal: backup: %w", err)
		}
		img := make([]byte, 0, size)
		gone := false
		for off := int64(0); off < size; {
			chunk, total, err := l.ReadSegmentChunk(seq, off, 1<<20)
			if errors.Is(err, ErrSegmentGone) || (err == nil && total != size) {
				gone = true // compaction replaced it mid-copy; retry against the new one
				break
			}
			if err != nil {
				return seq, 0, err
			}
			img = append(img, chunk...)
			off += int64(len(chunk))
		}
		if gone {
			continue
		}
		if _, err := ParseSegment(img, seq); err != nil {
			return seq, 0, fmt.Errorf("wal: backup verify: %w", err)
		}
		tmp := dst + ".tmp"
		if err := os.WriteFile(tmp, img, 0o644); err != nil {
			return seq, 0, fmt.Errorf("wal: backup write: %w", err)
		}
		if f, err := os.Open(tmp); err == nil {
			f.Sync()
			f.Close()
		}
		if err := os.Rename(tmp, dst); err != nil {
			os.Remove(tmp)
			return seq, 0, fmt.Errorf("wal: backup rename: %w", err)
		}
		if err := syncDir(dstDir); err != nil {
			return seq, 0, err
		}
		// Prune older backups: the newest verified segment subsumes them.
		if _, segSeqs, err := scanDir(dstDir); err == nil {
			for _, s := range segSeqs {
				if s < seq {
					os.Remove(segPath(dstDir, s))
				}
			}
		}
		return seq, int64(len(img)), nil
	}
	return seq, 0, fmt.Errorf("wal: backup: segment kept changing underfoot")
}

// RestoreSegment installs a sealed-segment file (e.g. from a backup
// directory) into an empty data directory, fully verified, so the next
// `peerd -data-dir` boot recovers from it. src may be the segment file
// itself or a directory holding one (the newest valid one wins).
func RestoreSegment(src, dstDir string) (seq uint64, records int, err error) {
	path := src
	if fi, err := os.Stat(src); err == nil && fi.IsDir() {
		_, segSeqs, err := scanDir(src)
		if err != nil {
			return 0, 0, err
		}
		if len(segSeqs) == 0 {
			return 0, 0, fmt.Errorf("wal: restore: no segment files in %s", src)
		}
		path = segPath(src, segSeqs[len(segSeqs)-1])
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: restore: %w", err)
	}
	if len(data) < len(magicSEG) || !bytes.Equal(data[:len(magicSEG)], magicSEG) {
		return 0, 0, fmt.Errorf("wal: restore: %s is not a segment file", path)
	}
	c := transport.NewCursor(data[len(magicSEG):])
	seq = c.Uvarint()
	if c.Err != nil || seq == 0 {
		return 0, 0, fmt.Errorf("wal: restore: torn segment header in %s", path)
	}
	recs, err := ParseSegment(data, seq)
	if err != nil {
		return seq, 0, fmt.Errorf("wal: restore verify: %w", err)
	}
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return seq, 0, fmt.Errorf("wal: restore: %w", err)
	}
	walSeqs, segSeqs, err := scanDir(dstDir)
	if err != nil {
		return seq, 0, err
	}
	if len(walSeqs)+len(segSeqs) > 0 {
		return seq, 0, fmt.Errorf("wal: restore: %s is not empty (%d wal, %d segment file(s)) — refusing to overwrite a live data dir",
			dstDir, len(walSeqs), len(segSeqs))
	}
	tmp := segPath(dstDir, seq) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return seq, 0, fmt.Errorf("wal: restore write: %w", err)
	}
	if f, err := os.Open(tmp); err == nil {
		f.Sync()
		f.Close()
	}
	if err := os.Rename(tmp, segPath(dstDir, seq)); err != nil {
		os.Remove(tmp)
		return seq, 0, fmt.Errorf("wal: restore rename: %w", err)
	}
	if err := syncDir(dstDir); err != nil {
		return seq, 0, err
	}
	return seq, len(recs), nil
}
