package relation

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"p2prange/internal/rangeset"
)

func testSchema(t *testing.T) *RelationSchema {
	t.Helper()
	return &RelationSchema{Name: "T", Columns: []Column{
		{Name: "id", Type: TInt},
		{Name: "name", Type: TString},
		{Name: "when", Type: TDate},
	}}
}

func TestInsertValidation(t *testing.T) {
	r := NewRelation(testSchema(t))
	ok := Tuple{IntVal(1), StrVal("x"), DateVal(2001, time.March, 4)}
	if err := r.Insert(ok); err != nil {
		t.Fatalf("valid insert: %v", err)
	}
	if err := r.Insert(Tuple{IntVal(1)}); err == nil {
		t.Error("arity violation accepted")
	}
	if err := r.Insert(Tuple{StrVal("x"), StrVal("y"), DateVal(2001, time.March, 4)}); err == nil {
		t.Error("type violation accepted")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestSelectRange(t *testing.T) {
	r := NewRelation(testSchema(t))
	for i := int64(0); i < 100; i++ {
		if err := r.Insert(Tuple{IntVal(i), StrVal("n"), DateVal(2000, time.January, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.SelectRange("id", rangeset.Range{Lo: 30, Hi: 50})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 21 {
		t.Errorf("selected %d tuples, want 21", got.Len())
	}
	for _, tp := range got.Tuples {
		if tp[0].Int < 30 || tp[0].Int > 50 {
			t.Fatalf("tuple %v outside range", tp)
		}
	}
	if _, err := r.SelectRange("nope", rangeset.Range{Lo: 0, Hi: 1}); !errors.Is(err, ErrNoColumn) {
		t.Errorf("unknown column error = %v", err)
	}
}

func TestSelectRangeOnDates(t *testing.T) {
	r := NewRelation(testSchema(t))
	dates := []Value{
		DateVal(1999, time.December, 31),
		DateVal(2000, time.June, 15),
		DateVal(2002, time.December, 31),
		DateVal(2003, time.January, 1),
	}
	for i, d := range dates {
		if err := r.Insert(Tuple{IntVal(int64(i)), StrVal("n"), d}); err != nil {
			t.Fatal(err)
		}
	}
	window := rangeset.Range{
		Lo: DayNumber(2000, time.January, 1),
		Hi: DayNumber(2002, time.December, 31),
	}
	got, err := r.SelectRange("when", window)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("date select returned %d tuples, want 2", got.Len())
	}
}

func TestDayNumberRoundTrip(t *testing.T) {
	cases := []struct {
		y int
		m time.Month
		d int
	}{
		{1970, time.January, 1},
		{2000, time.February, 29}, // leap day
		{2002, time.December, 31},
		{1969, time.July, 20}, // pre-epoch
	}
	for _, c := range cases {
		n := DayNumber(c.y, c.m, c.d)
		y, m, d := DayToDate(n)
		if y != c.y || m != c.m || d != c.d {
			t.Errorf("round trip %04d-%02d-%02d -> %d -> %04d-%02d-%02d",
				c.y, c.m, c.d, n, y, m, d)
		}
	}
	if DayNumber(1970, time.January, 1) != 0 {
		t.Error("epoch day should be 0")
	}
	if DayNumber(1970, time.January, 2) != 1 {
		t.Error("day numbering should be contiguous")
	}
}

func TestStringKeyStable(t *testing.T) {
	if StringKey("Glaucoma") != StringKey("Glaucoma") {
		t.Error("StringKey not deterministic")
	}
	if StringKey("Glaucoma") == StringKey("Diabetes") {
		t.Error("distinct strings collide (unlucky FNV collision?)")
	}
	if StringKey("") < 0 || StringKey("x") < 0 {
		t.Error("keys must be non-negative for range encoding")
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{IntVal(42), "42"},
		{StrVal("hi"), `"hi"`},
		{DateVal(2002, time.December, 31), "2002-12-31"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestAttributeRange(t *testing.T) {
	r := NewRelation(testSchema(t))
	for _, id := range []int64{5, 90, 17} {
		if err := r.Insert(Tuple{IntVal(id), StrVal("n"), DateVal(2000, time.January, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	dom, err := r.AttributeRange("id")
	if err != nil {
		t.Fatal(err)
	}
	if dom.Lo != 5 || dom.Hi != 90 {
		t.Errorf("domain = %v, want [5,90]", dom)
	}
	empty := NewRelation(testSchema(t))
	if _, err := empty.AttributeRange("id"); err == nil {
		t.Error("empty relation should have no attribute range")
	}
}

func TestSortBy(t *testing.T) {
	r := NewRelation(testSchema(t))
	for _, id := range []int64{5, 1, 9} {
		if err := r.Insert(Tuple{IntVal(id), StrVal("n"), DateVal(2000, time.January, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SortBy("id"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < r.Len(); i++ {
		if r.Tuples[i-1][0].Int > r.Tuples[i][0].Int {
			t.Fatalf("not sorted: %v", r.Tuples)
		}
	}
}

func TestPartitionMaterialization(t *testing.T) {
	r := NewRelation(testSchema(t))
	for i := int64(0); i < 50; i++ {
		if err := r.Insert(Tuple{IntVal(i), StrVal("n"), DateVal(2000, time.January, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	part, err := r.Partition("id", rangeset.Range{Lo: 10, Hi: 19})
	if err != nil {
		t.Fatal(err)
	}
	if part.Relation != "T" || part.Attribute != "id" || part.Data.Len() != 10 {
		t.Errorf("partition = %+v with %d tuples", part, part.Data.Len())
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(
		&RelationSchema{Name: "A"}, &RelationSchema{Name: "A"},
	); err == nil {
		t.Error("duplicate relation accepted")
	}
	if _, err := NewSchema(&RelationSchema{
		Name:    "A",
		Columns: []Column{{Name: "x", Type: TInt}, {Name: "x", Type: TInt}},
	}); err == nil {
		t.Error("duplicate column accepted")
	}
}

func TestMedicalGeneration(t *testing.T) {
	cfg := MedicalConfig{Patients: 100, Physicians: 10, Diagnoses: 300, Seed: 1}
	rels, err := GenerateMedical(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rels["Patient"].Len(); got != 100 {
		t.Errorf("patients = %d", got)
	}
	if got := rels["Diagnosis"].Len(); got != 300 {
		t.Errorf("diagnoses = %d", got)
	}
	if got := rels["Prescription"].Len(); got != 300 {
		t.Errorf("prescriptions = %d", got)
	}
	// Referential integrity: diagnosis FKs resolve.
	patIdx := make(map[int64]bool)
	for _, tp := range rels["Patient"].Tuples {
		patIdx[tp[0].Int] = true
	}
	presIdx := make(map[int64]bool)
	for _, tp := range rels["Prescription"].Tuples {
		presIdx[tp[0].Int] = true
	}
	for _, tp := range rels["Diagnosis"].Tuples {
		if !patIdx[tp[0].Int] {
			t.Fatalf("dangling patient_id %d", tp[0].Int)
		}
		if !presIdx[tp[3].Int] {
			t.Fatalf("dangling prescription_id %d", tp[3].Int)
		}
	}
	// Determinism.
	rels2, err := GenerateMedical(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rels["Patient"].Tuples[0][1].Str != rels2["Patient"].Tuples[0][1].Str {
		t.Error("generation not deterministic for equal seeds")
	}
}

func TestMedicalSchemaShape(t *testing.T) {
	s := MedicalSchema()
	for _, name := range []string{"Patient", "Diagnosis", "Physician", "Prescription"} {
		if _, ok := s.Relation(name); !ok {
			t.Errorf("missing relation %s", name)
		}
	}
	rs, _ := s.Relation("Patient")
	if col, ok := rs.Col("age"); !ok || col.Type != TInt {
		t.Error("Patient.age missing or mistyped")
	}
}

func TestIndexedSelectMatchesScan(t *testing.T) {
	rels, err := GenerateMedical(MedicalConfig{Patients: 500, Physicians: 10, Diagnoses: 500, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	r := rels["Patient"]
	scan, err := r.SelectRange("age", rangeset.Range{Lo: 30, Hi: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.BuildIndex("age"); err != nil {
		t.Fatal(err)
	}
	if !r.Indexed("age") {
		t.Fatal("index not registered")
	}
	indexed, err := r.SelectRange("age", rangeset.Range{Lo: 30, Hi: 50})
	if err != nil {
		t.Fatal(err)
	}
	if indexed.Len() != scan.Len() {
		t.Fatalf("indexed select %d tuples, scan %d", indexed.Len(), scan.Len())
	}
	// Same multiset of patient ids.
	count := map[int64]int{}
	for _, tp := range scan.Tuples {
		count[tp[0].Int]++
	}
	for _, tp := range indexed.Tuples {
		count[tp[0].Int]--
	}
	for id, c := range count {
		if c != 0 {
			t.Fatalf("tuple multiset differs at id %d", id)
		}
	}
	// Edge ranges behave.
	for _, rg := range []rangeset.Range{{Lo: -10, Hi: -1}, {Lo: 200, Hi: 300}, {Lo: 1, Hi: 99}} {
		a, _ := r.SelectRange("age", rg)
		r2 := rels["Physician"] // unindexed control not needed; rescan without index
		_ = r2
		bIdx := a.Len()
		full := 0
		for _, tp := range r.Tuples {
			if rg.Contains(tp[2].Ordinal()) {
				full++
			}
		}
		if bIdx != full {
			t.Fatalf("range %v: indexed %d, brute %d", rg, bIdx, full)
		}
	}
}

func TestIndexInvalidatedByInsert(t *testing.T) {
	r := NewRelation(&RelationSchema{Name: "T", Columns: []Column{{Name: "a", Type: TInt}}})
	for i := int64(0); i < 10; i++ {
		if err := r.Insert(Tuple{IntVal(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.BuildIndex("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(Tuple{IntVal(5)}); err != nil {
		t.Fatal(err)
	}
	if r.Indexed("a") {
		t.Fatal("stale index survived Insert")
	}
	// Selects remain correct post-invalidation.
	got, err := r.SelectRange("a", rangeset.Range{Lo: 5, Hi: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("post-insert select = %d tuples, want 2", got.Len())
	}
}

func TestIndexUnknownColumn(t *testing.T) {
	r := NewRelation(&RelationSchema{Name: "T", Columns: []Column{{Name: "a", Type: TInt}}})
	if err := r.BuildIndex("nope"); err == nil {
		t.Error("unknown column indexed")
	}
}

// TestIndexedAttributeRangeMatchesScan checks that an indexed attribute's
// domain, read from the index ends, equals the scan's on every column of
// every medical relation, and that a stale index is never read.
func TestIndexedAttributeRangeMatchesScan(t *testing.T) {
	rels, err := GenerateMedical(MedicalConfig{Patients: 300, Physicians: 10, Diagnoses: 300, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rels {
		for _, col := range r.Schema.Columns {
			scan, err := r.AttributeRange(col.Name)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.BuildIndex(col.Name); err != nil {
				t.Fatal(err)
			}
			indexed, err := r.AttributeRange(col.Name)
			if err != nil || indexed != scan {
				t.Errorf("%s.%s: indexed domain %v (%v), scan %v", r.Schema.Name, col.Name, indexed, err, scan)
			}
		}
	}
	// Replacing the tuples without Insert leaves an index of the wrong
	// length: it must be ignored, not read out of range.
	r := rels["Patient"]
	r.Tuples = r.Tuples[:1]
	dom, err := r.AttributeRange("age")
	if want := r.Tuples[0][2].Int; err != nil || dom.Lo != want || dom.Hi != want {
		t.Errorf("domain over one tuple = %v (%v), want [%d,%d]", dom, err, want, want)
	}
}

// TestJoinIndexKeptUntilMutation checks that JoinIndex builds once per
// column list and is reused, that Insert and SortBy drop it, and that a
// relation whose tuple slice was replaced builds a fresh one.
func TestJoinIndexKeptUntilMutation(t *testing.T) {
	r := NewRelation(testSchema(t))
	for _, id := range []int64{5, 1, 5} {
		if err := r.Insert(Tuple{IntVal(id), StrVal("n"), DateVal(2000, time.January, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	chain := func(ix *JoinIndex, v Value) []int {
		var at []int
		for j := ix.Head(v); j >= 0; j = ix.Next(j) {
			at = append(at, j)
		}
		return at
	}
	ix := r.JoinIndex([]int{0})
	if got := chain(ix, IntVal(5)); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("chain of 5 = %v, want [0 2] (table order)", got)
	}
	if r.JoinIndex([]int{0}) != ix {
		t.Error("second JoinIndex on the same columns rebuilt the index")
	}
	wide := r.JoinIndex([]int{0, 1})
	if r.JoinIndex([]int{0}) != ix || r.JoinIndex([]int{0, 1}) != wide {
		t.Error("a second column list evicted the first")
	}
	key := AppendKey(AppendKey(nil, IntVal(1)), StrVal("n"))
	if j := wide.HeadKey(key); j != 1 || wide.Next(j) != -1 {
		t.Errorf("wide key (1, n) heads at %d, want 1 alone", j)
	}

	if err := r.Insert(Tuple{IntVal(5), StrVal("m"), DateVal(2001, time.January, 1)}); err != nil {
		t.Fatal(err)
	}
	ix2 := r.JoinIndex([]int{0})
	if ix2 == ix {
		t.Fatal("Insert kept the join index")
	}
	if got := chain(ix2, IntVal(5)); !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Errorf("after Insert, chain of 5 = %v, want [0 2 3]", got)
	}
	if err := r.SortBy("id"); err != nil {
		t.Fatal(err)
	}
	ix3 := r.JoinIndex([]int{0})
	if ix3 == ix2 {
		t.Fatal("SortBy kept the join index")
	}
	if got := chain(ix3, IntVal(5)); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("after SortBy, chain of 5 = %v, want [1 2 3]", got)
	}
	r.Tuples = append([]Tuple(nil), r.Tuples[1:]...)
	if got := chain(r.JoinIndex([]int{0}), IntVal(5)); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("after replacing Tuples, chain of 5 = %v, want [0 1 2]", got)
	}
}
