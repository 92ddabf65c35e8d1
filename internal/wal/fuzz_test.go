package wal

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"p2prange/internal/rangeset"
	"p2prange/internal/store"
	"p2prange/internal/transport"
)

// FuzzWALRecordParse hammers the record parser with mutated bytes: a
// corrupt or truncated body must produce a clean error, and any body the
// parser accepts must re-encode to a byte-identical parse — the property
// recovery relies on when it walks a file of unknown integrity.
func FuzzWALRecordParse(f *testing.F) {
	seeds := []Record{
		{Op: OpPut, ID: 0xdeadbeef, Part: store.Partition{
			Relation: "Patient", Attribute: "age",
			Range:  rangeset.Range{Lo: -2, Hi: 113},
			Holder: "10.0.0.7:4000", Version: 9, Origin: "10.0.0.9:4000",
		}},
		{Op: OpEvict, ID: 42, Key: "Patient/age/[2,11]"},
		{Op: OpDropArc, From: 0xffffffff, To: 0},
		{Op: opSeal, Count: 1<<32 - 1},
	}
	for _, r := range seeds {
		payload := AppendRecord(nil, &r)
		f.Add(payload)
		for cut := 0; cut < len(payload); cut++ {
			f.Add(payload[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			return
		}
		rec, err := ParseRecord(transport.NewCursor(data))
		if err != nil {
			return
		}
		again := AppendRecord(nil, &rec)
		rec2, err := ParseRecord(transport.NewCursor(again))
		if err != nil {
			t.Fatalf("re-encoded record failed to parse: %v", err)
		}
		if rec != rec2 {
			t.Errorf("record changed across a round trip:\nfirst:  %+v\nsecond: %+v", rec, rec2)
		}
	})
}

// FuzzSegmentFooterParse hammers the segment-footer parser, which reads
// the one region of a sealed segment not covered by record checksums
// until its own CRC is verified. A mutated footer must either be rejected
// (ErrCorrupt — the reader then rebuilds from the records) or parse into
// an index that re-encodes and re-parses identically; it must never
// panic or yield an index that disagrees with itself.
func FuzzSegmentFooterParse(f *testing.F) {
	const recStart, footerOff = 10, 1 << 20
	// A realistic footer: sparse entries, populated blooms.
	seedIdx := &segIndex{count: 130, dataEnd: 77777}
	for i := 0; i < 3; i++ {
		seedIdx.entries = append(seedIdx.entries, indexEntry{
			id:  store.ID(i * 1000),
			off: int64(20 + i*25600),
		})
	}
	seedIdx.keys, seedIdx.ids = newBloom(130), newBloom(130)
	for i := 0; i < 130; i++ {
		seedIdx.keys.add(hashIDKey(uint32(i), "Patient.age[0,10]"))
		seedIdx.ids.add(hashID(uint32(i)))
	}
	full := appendFooter(nil, seedIdx)
	body := full[:len(full)-segTrailerLen]
	f.Add(append([]byte(nil), body...))
	for cut := 0; cut < len(body); cut += 3 {
		f.Add(append([]byte(nil), body[:cut]...))
	}
	for pos := 0; pos < len(body); pos += 5 {
		mut := append([]byte(nil), body...)
		mut[pos] ^= 0x41
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		x, err := parseFooter(data, recStart, footerOff)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("footer rejection is not ErrCorrupt: %v", err)
			}
			return
		}
		again := appendFooter(nil, x)
		x2, err := parseFooter(again[:len(again)-segTrailerLen], recStart, footerOff)
		if err != nil {
			t.Fatalf("re-encoded footer failed to parse: %v", err)
		}
		if x.count != x2.count || x.dataEnd != x2.dataEnd ||
			!reflect.DeepEqual(x.entries, x2.entries) ||
			!reflect.DeepEqual(x.keys, x2.keys) || !reflect.DeepEqual(x.ids, x2.ids) {
			t.Errorf("footer changed across a round trip:\nfirst:  %+v\nsecond: %+v", x, x2)
		}
	})
}

// FuzzSegmentImage feeds arbitrary bytes to the one segment-image
// decoder through both of its doors: ParseSegment (boot, snapshot seed,
// backup) and InspectDir (walctl verify). ParseSegment must never panic,
// and it must accept an image exactly when verify finds its record
// stream undamaged. A damaged footer is not a rejection: boot survives
// it with an index rebuild, so it lands in FooterDamage, not Damage.
func FuzzSegmentImage(f *testing.F) {
	dir, _ := seedSegment(f, 30)
	pristine, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		f.Fatal(err)
	}
	empty := f.TempDir()
	lg, _, err := Open(Options{Dir: empty}, store.New())
	if err != nil {
		f.Fatal(err)
	}
	if err := lg.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	lg.Crash()
	sealedEmpty, err := os.ReadFile(segPath(empty, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pristine)
	f.Add(sealedEmpty)
	f.Add(pristine[:len(pristine)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		_, perr := ParseSegment(data, 1)
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := InspectDir(dir, nil)
		if err != nil || len(rep.Files) != 1 {
			t.Fatalf("InspectDir = %+v, %v; want one file", rep.Files, err)
		}
		if damage := rep.Files[0].Damage; (perr == nil) != (damage == "") {
			t.Fatalf("ParseSegment error %v, verify damage %q", perr, damage)
		}
	})
}
