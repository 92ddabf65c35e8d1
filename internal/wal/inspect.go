package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
	fr := FileReport{Name: filepath.Base(walPath(dir, seq)), Kind: "wal", Seq: seq}
	size, end, err := readWAL(dir, seq, func(r Record) error {
		fr.Records++
		if dump != nil {
			dump(fr.Name, r)
		}
		return nil
	})
	fr.Bytes = size
	switch {
	case err == nil:
	case end == 0: // unreadable, or a bad header
		fr.Damage = err.Error()
	default:
		fr.Damage = fmt.Sprintf("%v (%d trailing byte(s) after last valid record)", err, size-end)
	}
	return fr
}

// inspectSegment checks a segment exactly as boot and the read path do:
// the record stream through parseSegment, the footer through readFooter.
func inspectSegment(dir string, seq uint64, dump func(string, Record)) FileReport {
	path := segPath(dir, seq)
	fr := FileReport{Name: filepath.Base(path), Kind: "segment", Seq: seq}
	data, err := os.ReadFile(path)
	if err != nil {
		fr.Damage = err.Error()
		return fr
	}
	fr.Bytes = int64(len(data))
	puts, err := parseSegment(data, seq)
	fr.Records = len(puts)
	if dump != nil {
		for _, r := range puts {
			dump(fr.Name, r)
		}
	}
	if err != nil {
		fr.Damage = err.Error()
	} else if _, err := readFooter(bytes.NewReader(data), headerLen(seq), fr.Bytes); err != nil {
		fr.FooterDamage = err.Error()
	}
	return fr
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
		if err := installFile(dst, img); err != nil {
			return seq, 0, err
		}
		// Prune older backups, and the temps of interrupted ones: the
		// newest verified segment subsumes them.
		removeTemps(dstDir)
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
// itself or a directory holding one (the newest valid one wins). It
// never modifies src.
func RestoreSegment(src, dstDir string) (seq uint64, records int, err error) {
	var data []byte
	var recs []Record
	if fi, err := os.Stat(src); err == nil && fi.IsDir() {
		_, segSeqs, err := scanDir(src)
		if err != nil {
			return 0, 0, err
		}
		if len(segSeqs) == 0 {
			return 0, 0, fmt.Errorf("wal: restore: no segment files in %s", src)
		}
		var newest error
		for i := len(segSeqs) - 1; i >= 0; i-- {
			if seq, data, recs, err = readSegmentFile(segPath(src, segSeqs[i])); err == nil {
				break
			}
			if newest == nil {
				newest = err
			}
		}
		if err != nil {
			return 0, 0, fmt.Errorf("wal: restore: no valid segment in %s (newest: %w)", src, newest)
		}
	} else if seq, data, recs, err = readSegmentFile(src); err != nil {
		return seq, 0, err
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
	if err := installFile(segPath(dstDir, seq), data); err != nil {
		return seq, 0, err
	}
	return seq, len(recs), nil
}

// readSegmentFile reads and fully verifies the sealed segment at path,
// taking its sequence number from its header.
func readSegmentFile(path string) (seq uint64, data []byte, recs []Record, err error) {
	data, err = os.ReadFile(path)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("wal: restore: %w", err)
	}
	if seq, _, err = splitHeader(data, magicSEG); err == nil {
		recs, err = ParseSegment(data, seq)
	}
	if err != nil {
		return seq, nil, nil, fmt.Errorf("wal: restore verify %s: %w", path, err)
	}
	return seq, data, recs, nil
}
