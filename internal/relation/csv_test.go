package relation

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCSVRoundTrip(t *testing.T) {
	rels, err := GenerateMedical(MedicalConfig{Patients: 50, Physicians: 5, Diagnoses: 80, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range rels {
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := ReadCSV(r.Schema, &buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if got.Len() != r.Len() {
			t.Fatalf("%s: %d tuples, want %d", name, got.Len(), r.Len())
		}
		for i, tp := range got.Tuples {
			for j, v := range tp {
				if !v.Equal(r.Tuples[i][j]) {
					t.Fatalf("%s: tuple %d col %d = %v, want %v", name, i, j, v, r.Tuples[i][j])
				}
			}
		}
	}
}

func TestCSVQuotedStrings(t *testing.T) {
	rs := &RelationSchema{Name: "T", Columns: []Column{
		{Name: "id", Type: TInt}, {Name: "note", Type: TString},
	}}
	r := NewRelation(rs)
	tricky := []string{`comma, inside`, `quote " inside`, "newline\ninside", ""}
	for i, s := range tricky {
		if err := r.Insert(Tuple{IntVal(int64(i)), StrVal(s)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(rs, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range tricky {
		if got.Tuples[i][1].Str != s {
			t.Errorf("tuple %d note = %q, want %q", i, got.Tuples[i][1].Str, s)
		}
	}
}

func TestCSVColumnReordering(t *testing.T) {
	rs := &RelationSchema{Name: "T", Columns: []Column{
		{Name: "a", Type: TInt}, {Name: "b", Type: TString}, {Name: "d", Type: TDate},
	}}
	in := "d,a,b\n2001-02-03,7,hello\n"
	got, err := ReadCSV(rs, strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	tp := got.Tuples[0]
	if tp[0].Int != 7 || tp[1].Str != "hello" || tp[2].Int != DayNumber(2001, time.February, 3) {
		t.Errorf("reordered parse = %v", tp)
	}
}

func TestCSVErrors(t *testing.T) {
	rs := &RelationSchema{Name: "T", Columns: []Column{
		{Name: "a", Type: TInt}, {Name: "d", Type: TDate},
	}}
	cases := []struct {
		name, in string
	}{
		{"unknown column", "a,x\n1,2\n"},
		{"duplicate column", "a,a\n1,2\n"},
		{"bad integer", "a,d\nxyz,2001-01-01\n"},
		{"bad date", "a,d\n1,01/02/2001\n"},
		{"bad date fields", "a,d\n1,2001-13-40\n"},
		{"wrong arity", "a,d\n1\n"},
		{"empty input", ""},
	}
	for _, c := range cases {
		if _, err := ReadCSV(rs, strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestCSVDateValidation(t *testing.T) {
	rs := &RelationSchema{Name: "T", Columns: []Column{{Name: "d", Type: TDate}}}
	for _, c := range []struct {
		cell string
		ok   bool
	}{
		{"2000-02-29", true}, // leap day
		{"2001-02-29", false},
		{"2000-04-31", false},
		{"02-31-2000", false},
		{"2000-13-01", false},
		{"2000-00-10", false},
	} {
		r, err := ReadCSV(rs, strings.NewReader("d\n"+c.cell+"\n"))
		if !c.ok {
			if err == nil {
				t.Errorf("%s: accepted as %v", c.cell, r.Tuples[0][0])
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.cell, err)
		} else if got := r.Tuples[0][0]; got != DateVal(2000, time.February, 29) {
			t.Errorf("%s: read as %v", c.cell, got)
		}
	}
}

func TestCSVEmptyRelation(t *testing.T) {
	rs := &RelationSchema{Name: "T", Columns: []Column{{Name: "a", Type: TInt}}}
	var buf bytes.Buffer
	if err := NewRelation(rs).WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(rs, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("round-tripped empty relation has %d tuples", got.Len())
	}
}
