package query

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
)

func TestParseBasics(t *testing.T) {
	q, err := Parse("SELECT name FROM Patient WHERE 30 < age AND age < 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 1 || q.Select[0].Col.Column != "name" {
		t.Errorf("select = %v", q.Select)
	}
	if len(q.From) != 1 || q.From[0] != "Patient" {
		t.Errorf("from = %v", q.From)
	}
	if len(q.Where) != 2 {
		t.Errorf("where = %v", q.Where)
	}
}

func TestParseStar(t *testing.T) {
	q, err := Parse("select * from Patient")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 0 {
		t.Errorf("star select = %v", q.Select)
	}
}

func TestParseQualifiedAndJoin(t *testing.T) {
	q, err := Parse("SELECT Prescription.prescription FROM Patient, Diagnosis WHERE Patient.patient_id = Diagnosis.patient_id")
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Col.Relation != "Prescription" {
		t.Errorf("qualified select = %v", q.Select[0])
	}
	p := q.Where[0]
	if !p.Left.IsCol() || !p.Right.IsCol() || p.Op != OpEQ {
		t.Errorf("join predicate = %v", p)
	}
}

func TestParseChainedComparison(t *testing.T) {
	q, err := Parse("SELECT * FROM R WHERE 30 < age < 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 2 {
		t.Fatalf("chained comparison expands to %d predicates, want 2", len(q.Where))
	}
}

func TestParseBetween(t *testing.T) {
	q, err := Parse("SELECT * FROM R WHERE age BETWEEN 30 AND 50")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 2 {
		t.Fatalf("BETWEEN expands to %d predicates, want 2", len(q.Where))
	}
	if q.Where[0].Op != OpGE || q.Where[1].Op != OpLE {
		t.Errorf("BETWEEN ops = %v, %v", q.Where[0].Op, q.Where[1].Op)
	}
}

func TestParseDates(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM R WHERE d <= '2002-12-31'",
		"SELECT * FROM R WHERE d <= 12-31-2002",
		`SELECT * FROM R WHERE d <= "12-31-2002"`,
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		lit := q.Where[0].Right.Lit
		if lit == nil || lit.Kind != relation.TDate {
			t.Fatalf("%s: literal = %v", src, lit)
		}
		if lit.Int != relation.DayNumber(2002, time.December, 31) {
			t.Errorf("%s: day = %d", src, lit.Int)
		}
	}
}

func TestParseDateValidation(t *testing.T) {
	for _, c := range []struct {
		lit string
		ok  bool
	}{
		{"2000-02-29", true}, // leap day
		{"2001-02-29", false},
		{"2000-04-31", false},
		{"02-31-2000", false},
		{"2000-13-01", false},
		{"2000-00-10", false},
	} {
		// Unquoted, a date that is not in the calendar is a syntax error.
		src := "SELECT * FROM R WHERE d <= " + c.lit
		q, err := Parse(src)
		if !c.ok {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("%s: err = %v, want a SyntaxError", src, err)
			}
		} else if err != nil {
			t.Errorf("%s: %v", src, err)
		} else if lit := q.Where[0].Right.Lit; lit == nil || *lit != relation.DateVal(2000, time.February, 29) {
			t.Errorf("%s: literal = %v", src, lit)
		}
		// Quoted, it is a plain string, never a normalised date.
		src = "SELECT * FROM R WHERE d <= '" + c.lit + "'"
		if q, err = Parse(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if isDate := q.Where[0].Right.Lit.Kind == relation.TDate; isDate != c.ok {
			t.Errorf("%s: date literal = %v, want %v", src, isDate, c.ok)
		}
	}
}

func TestParseStringLiteral(t *testing.T) {
	q, err := Parse("SELECT * FROM R WHERE diagnosis = 'Glaucoma'")
	if err != nil {
		t.Fatal(err)
	}
	lit := q.Where[0].Right.Lit
	if lit == nil || lit.Kind != relation.TString || lit.Str != "Glaucoma" {
		t.Errorf("literal = %v", lit)
	}
}

func TestParseNegativeNumber(t *testing.T) {
	q, err := Parse("SELECT * FROM R WHERE x > -5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Where[0].Right.Lit.Int != -5 {
		t.Errorf("literal = %v", q.Where[0].Right.Lit)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"FROM R",
		"SELECT FROM R",
		"SELECT * FROM",
		"SELECT * FROM R WHERE",
		"SELECT * FROM R WHERE x",
		"SELECT * FROM R WHERE x <",
		"SELECT * FROM R WHERE x < 'unterminated",
		"SELECT * FROM R extra",
		"SELECT * FROM R WHERE x ! 3",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Parse(%q) error %v is not a SyntaxError", src, err)
			}
		}
	}
}

func medSchema(t *testing.T) *relation.Schema {
	t.Helper()
	return relation.MedicalSchema()
}

func mustPlan(t *testing.T, sql string) *Plan {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPlan(q, medSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanPushesSelects(t *testing.T) {
	p := mustPlan(t, `SELECT Prescription.prescription FROM Patient, Diagnosis, Prescription
		WHERE 30 <= age AND age <= 50 AND diagnosis = 'Glaucoma'
		AND Patient.patient_id = Diagnosis.patient_id
		AND '2000-01-01' <= date AND date <= '2002-12-31'
		AND Diagnosis.prescription_id = Prescription.prescription_id`)
	if len(p.Scans) != 3 {
		t.Fatalf("scans = %d", len(p.Scans))
	}
	byRel := map[string]Scan{}
	for _, s := range p.Scans {
		byRel[s.Relation] = s
	}
	if s := byRel["Patient"]; s.Attribute != "age" || s.Range != (rangeset.Range{Lo: 30, Hi: 50}) {
		t.Errorf("Patient scan = %+v", s)
	}
	if s := byRel["Diagnosis"]; s.Attribute != "diagnosis" || len(s.Residual) == 0 {
		t.Errorf("Diagnosis scan = %+v (string equality needs residual recheck)", s)
	}
	if s := byRel["Prescription"]; s.Attribute != "date" {
		t.Errorf("Prescription scan = %+v", s)
	}
	if len(p.Joins) != 2 {
		t.Errorf("joins = %v", p.Joins)
	}
}

func TestPlanStrictInequalities(t *testing.T) {
	p := mustPlan(t, "SELECT * FROM Patient WHERE 30 < age AND age < 50")
	if p.Scans[0].Range != (rangeset.Range{Lo: 31, Hi: 49}) {
		t.Errorf("strict bounds = %v, want [31,49]", p.Scans[0].Range)
	}
}

func TestPlanHalfOpenRange(t *testing.T) {
	p := mustPlan(t, "SELECT * FROM Patient WHERE age > 50")
	s := p.Scans[0]
	if s.Attribute != "age" || s.Range.Lo != 51 || s.Range.Hi != math.MaxInt64 {
		t.Errorf("half-open scan = %+v", s)
	}
}

func TestPlanContradiction(t *testing.T) {
	q, err := Parse("SELECT * FROM Patient WHERE age > 50 AND age < 30")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlan(q, medSchema(t)); !errors.Is(err, ErrEmptySelect) {
		t.Errorf("err = %v, want ErrEmptySelect", err)
	}
}

func TestPlanMultiAttributeRejected(t *testing.T) {
	q, err := Parse("SELECT * FROM Prescription WHERE prescription_id > 5 AND date > '2000-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlan(q, medSchema(t)); !errors.Is(err, ErrMultiAttribute) {
		t.Errorf("err = %v, want ErrMultiAttribute", err)
	}
}

func TestPlanAmbiguousColumn(t *testing.T) {
	// "age" exists in both Patient and Physician.
	q, err := Parse("SELECT * FROM Patient, Physician WHERE age > 30")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlan(q, medSchema(t)); !errors.Is(err, ErrAmbiguous) {
		t.Errorf("err = %v, want ErrAmbiguous", err)
	}
}

func TestPlanUnknowns(t *testing.T) {
	q, _ := Parse("SELECT * FROM Nope")
	if _, err := BuildPlan(q, medSchema(t)); !errors.Is(err, ErrUnknownRelation) {
		t.Errorf("unknown relation err = %v", err)
	}
	q, _ = Parse("SELECT * FROM Patient WHERE shoe_size > 9")
	if _, err := BuildPlan(q, medSchema(t)); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("unknown column err = %v", err)
	}
}

func TestPlanStringRangeRejected(t *testing.T) {
	q, err := Parse("SELECT * FROM Patient WHERE name > 'Bob'")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlan(q, medSchema(t)); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}

// TestPlanRangePredicates pins how single-relation range predicates plan:
// the pushed-down attribute and range, or the error that rejects them.
// Contradictions must fail at plan time with ErrEmptySelect, including
// strict bounds at the edges of int64, where v-1 and v+1 would wrap.
func TestPlanRangePredicates(t *testing.T) {
	tests := []struct {
		name    string
		sql     string
		attr    string // "" for a full scan
		want    rangeset.Range
		wantErr error
		syntax  bool // a parse error rather than a plan error
	}{
		{
			name: "no predicate",
			sql:  "SELECT * FROM Patient",
		},
		{
			name: "closed",
			sql:  "SELECT * FROM Patient WHERE age BETWEEN 30 AND 50",
			attr: "age",
			want: rangeset.Range{Lo: 30, Hi: 50},
		},
		{
			name: "open above",
			sql:  "SELECT * FROM Patient WHERE age >= 30",
			attr: "age",
			want: rangeset.Range{Lo: 30, Hi: math.MaxInt64},
		},
		{
			name: "open below",
			sql:  "SELECT * FROM Patient WHERE age <= 50",
			attr: "age",
			want: rangeset.Range{Lo: math.MinInt64, Hi: 50},
		},
		{
			name: "strict at the largest value below it",
			sql:  "SELECT * FROM Patient WHERE age < 9223372036854775807",
			attr: "age",
			want: rangeset.Range{Lo: math.MinInt64, Hi: math.MaxInt64 - 1},
		},
		{
			name:    "above the largest int64",
			sql:     "SELECT * FROM Patient WHERE age > 9223372036854775807",
			wantErr: ErrEmptySelect,
		},
		{
			name:    "below the smallest int64",
			sql:     "SELECT * FROM Patient WHERE age < -9223372036854775808",
			wantErr: ErrEmptySelect,
		},
		{
			name:    "below the smallest int64 with a later bound",
			sql:     "SELECT * FROM Patient WHERE age < -9223372036854775808 AND age >= 0",
			wantErr: ErrEmptySelect,
		},
		{
			name:    "inverted between",
			sql:     "SELECT * FROM Patient WHERE age BETWEEN 50 AND 30",
			wantErr: ErrEmptySelect,
		},
		{
			name:   "empty in list",
			sql:    "SELECT * FROM Patient WHERE age IN ()",
			syntax: true,
		},
		{
			name:    "column against column in one relation",
			sql:     "SELECT * FROM Patient WHERE patient_id < age",
			wantErr: ErrUnsupported,
		},
		{
			name:    "range over a string column",
			sql:     "SELECT * FROM Patient WHERE name >= 'A' AND name <= 'M'",
			wantErr: ErrUnsupported,
		},
		{
			name: "range over date literals",
			sql:  "SELECT * FROM Prescription WHERE date BETWEEN '2000-01-01' AND '2000-01-31'",
			attr: "date",
			want: rangeset.Range{
				Lo: relation.DayNumber(2000, time.January, 1),
				Hi: relation.DayNumber(2000, time.January, 31),
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q, err := Parse(tt.sql)
			if tt.syntax {
				var se *SyntaxError
				if !errors.As(err, &se) {
					t.Errorf("Parse() error = %v, want a *SyntaxError", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse() error = %v", err)
			}
			plan, err := BuildPlan(q, medSchema(t))
			if tt.wantErr != nil {
				if !errors.Is(err, tt.wantErr) {
					t.Errorf("BuildPlan() error = %v, want %v (plan %v)", err, tt.wantErr, plan)
				}
				return
			}
			if err != nil {
				t.Fatalf("BuildPlan() error = %v", err)
			}
			s := plan.Scans[0]
			if s.Attribute != tt.attr || (tt.attr != "" && s.Range != tt.want) {
				t.Errorf("BuildPlan() scan = %s in %v, want %s in %v", s.Attribute, s.Range, tt.attr, tt.want)
			}
		})
	}
}

// --- Execution ---

func medData(t *testing.T) (*relation.Schema, *RelationSource) {
	t.Helper()
	rels, err := relation.GenerateMedical(relation.MedicalConfig{
		Patients: 300, Physicians: 20, Diagnoses: 800, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return relation.MedicalSchema(), NewRelationSource(rels)
}

func exec(t *testing.T, sql string) *Result {
	t.Helper()
	schema, src := medData(t)
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(q, schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(plan, schema, src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExecuteSimpleSelect(t *testing.T) {
	res := exec(t, "SELECT patient_id, age FROM Patient WHERE 30 <= age AND age <= 50")
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if row[1].Int < 30 || row[1].Int > 50 {
			t.Fatalf("row %v violates predicate", row)
		}
	}
	if r := res.ScanRecall["Patient.age"]; r != 1 {
		t.Errorf("base-source recall = %g, want 1", r)
	}
}

func TestExecuteJoinMatchesNestedLoop(t *testing.T) {
	schema, src := medData(t)
	sql := `SELECT Patient.patient_id, Diagnosis.prescription_id FROM Patient, Diagnosis
		WHERE 40 <= age AND age <= 60 AND Patient.patient_id = Diagnosis.patient_id`
	res := exec(t, sql)

	// Brute-force nested loop for the same predicate.
	pat, _ := src.FetchAll("Patient")
	diag, _ := src.FetchAll("Diagnosis")
	want := 0
	for _, pt := range pat.Tuples {
		if pt[2].Int < 40 || pt[2].Int > 60 {
			continue
		}
		for _, dt := range diag.Tuples {
			if dt[0].Int == pt[0].Int {
				want++
			}
		}
	}
	if len(res.Rows) != want {
		t.Errorf("join returned %d rows, nested loop says %d", len(res.Rows), want)
	}
	_ = schema
}

func TestExecutePaperQuery(t *testing.T) {
	res := exec(t, `SELECT Prescription.prescription FROM Patient, Diagnosis, Prescription
		WHERE 30 <= age AND age <= 50 AND diagnosis = 'Glaucoma'
		AND Patient.patient_id = Diagnosis.patient_id
		AND '2000-01-01' <= date AND date <= '2002-12-31'
		AND Diagnosis.prescription_id = Prescription.prescription_id`)
	if len(res.Rows) == 0 {
		t.Fatal("paper query returned nothing; generator should make it non-empty")
	}
	if len(res.Columns) != 1 || res.Columns[0].String() != "Prescription.prescription" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestExecuteStringEqualityExact(t *testing.T) {
	// The hashed degenerate range could collide; the residual filter must
	// guarantee only exact matches survive.
	res := exec(t, "SELECT diagnosis FROM Diagnosis WHERE diagnosis = 'Asthma'")
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if row[0].Str != "Asthma" {
			t.Fatalf("string equality leaked %q", row[0].Str)
		}
	}
}

func TestExecuteProjectionStar(t *testing.T) {
	res := exec(t, "SELECT * FROM Physician WHERE physician_id <= 3")
	if len(res.Columns) != 4 {
		t.Errorf("star projection columns = %v", res.Columns)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}
}

func TestExecuteCrossProductWithoutJoin(t *testing.T) {
	res := exec(t, "SELECT Physician.physician_id FROM Physician, Patient WHERE physician_id <= 2 AND patient_id <= 3")
	if len(res.Rows) != 6 {
		t.Errorf("cross product rows = %d, want 6", len(res.Rows))
	}
}

func TestExecuteEmptyResult(t *testing.T) {
	// The generator draws ages 1..99, so age = 0 selects nothing; the
	// query still executes cleanly end to end.
	res := exec(t, "SELECT * FROM Patient WHERE age = 0")
	if len(res.Rows) != 0 {
		t.Errorf("expected empty result, got %d rows", len(res.Rows))
	}
}

func TestExecuteContradictionRejectedAtPlanTime(t *testing.T) {
	schema := relation.MedicalSchema()
	q, err := Parse("SELECT * FROM Patient WHERE patient_id = 1 AND patient_id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlan(q, schema); !errors.Is(err, ErrEmptySelect) {
		t.Errorf("err = %v, want ErrEmptySelect", err)
	}
}

func TestExecuteUnknownRelationFromSource(t *testing.T) {
	schema := relation.MedicalSchema()
	src := NewRelationSource(map[string]*relation.Relation{})
	q, _ := Parse("SELECT * FROM Patient WHERE age > 10")
	plan, err := BuildPlan(q, schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(plan, schema, src); !errors.Is(err, ErrNoSource) {
		t.Errorf("err = %v, want ErrNoSource", err)
	}
}

func TestClampToDomain(t *testing.T) {
	rels, err := relation.GenerateMedical(relation.MedicalConfig{
		Patients: 50, Physicians: 5, Diagnoses: 50, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rels["Patient"]
	dom, _ := r.AttributeRange("age")
	half := rangeset.Range{Lo: 40, Hi: math.MaxInt64}
	got := ClampToDomain(r, "age", half)
	if got.Lo != 40 || got.Hi != dom.Hi {
		t.Errorf("clamped = %v, domain = %v", got, dom)
	}
	bounded := rangeset.Range{Lo: 1, Hi: 2}
	if got := ClampToDomain(r, "age", bounded); got != bounded {
		t.Errorf("bounded range changed: %v", got)
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	src := "SELECT name FROM Patient WHERE 30 <= age AND age <= 50"
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, frag := range []string{"SELECT name", "FROM Patient", "age"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
	// Re-parse of the rendering succeeds.
	if _, err := Parse(s); err != nil {
		t.Errorf("re-parse of %q: %v", s, err)
	}
}

func TestParseOrderByAndLimit(t *testing.T) {
	q, err := Parse("SELECT patient_id FROM Patient WHERE age > 10 ORDER BY age DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.OrderBy == nil || q.OrderBy.Col.Column != "age" || !q.OrderBy.Desc {
		t.Errorf("OrderBy = %+v", q.OrderBy)
	}
	if q.Limit != 5 {
		t.Errorf("Limit = %d", q.Limit)
	}
	// Default ASC and no limit.
	q, err = Parse("SELECT patient_id FROM Patient ORDER BY patient_id")
	if err != nil {
		t.Fatal(err)
	}
	if q.OrderBy == nil || q.OrderBy.Desc {
		t.Errorf("OrderBy = %+v", q.OrderBy)
	}
	if q.Limit != -1 {
		t.Errorf("Limit = %d, want -1", q.Limit)
	}
	if _, err := Parse("SELECT * FROM R LIMIT x"); err == nil {
		t.Error("bad LIMIT accepted")
	}
	if _, err := Parse("SELECT * FROM R ORDER age"); err == nil {
		t.Error("ORDER without BY accepted")
	}
}

func TestExecuteOrderByProjectedColumn(t *testing.T) {
	res := exec(t, "SELECT patient_id, age FROM Patient WHERE age >= 30 AND age <= 40 ORDER BY age")
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][1].Int > res.Rows[i][1].Int {
			t.Fatalf("rows not sorted ascending at %d", i)
		}
	}
	res = exec(t, "SELECT patient_id, age FROM Patient WHERE age >= 30 AND age <= 40 ORDER BY age DESC")
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][1].Int < res.Rows[i][1].Int {
			t.Fatalf("rows not sorted descending at %d", i)
		}
	}
}

func TestExecuteOrderByUnprojectedColumn(t *testing.T) {
	// ORDER BY a column that is not in the projection list.
	res := exec(t, "SELECT patient_id FROM Patient WHERE age >= 30 AND age <= 40 ORDER BY age LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("LIMIT 3 returned %d rows", len(res.Rows))
	}
	// Cross-check: the three returned patients are among those with the
	// smallest ages in the band.
	_, src := medData(t)
	all, _ := src.FetchAll("Patient")
	minAge := int64(1 << 62)
	for _, tp := range all.Tuples {
		if tp[2].Int >= 30 && tp[2].Int <= 40 && tp[2].Int < minAge {
			minAge = tp[2].Int
		}
	}
	found := false
	for _, tp := range all.Tuples {
		if tp[0].Int == res.Rows[0][0].Int {
			if tp[2].Int != minAge {
				t.Errorf("first row age %d, want min %d", tp[2].Int, minAge)
			}
			found = true
		}
	}
	if !found {
		t.Error("returned patient not in base relation")
	}
}

func TestExecuteLimitZero(t *testing.T) {
	res := exec(t, "SELECT * FROM Patient LIMIT 0")
	if len(res.Rows) != 0 {
		t.Errorf("LIMIT 0 returned %d rows", len(res.Rows))
	}
}

func TestExecuteOrderByString(t *testing.T) {
	res := exec(t, "SELECT name FROM Physician ORDER BY name LIMIT 10")
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].Str > res.Rows[i][0].Str {
			t.Fatalf("names not sorted at %d", i)
		}
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse("SELECT COUNT(*), SUM(age), avg(age), MIN(age), MAX(age) FROM Patient")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 5 {
		t.Fatalf("select items = %d", len(q.Select))
	}
	if q.Select[0].Agg != AggCount || !q.Select[0].Star {
		t.Errorf("item 0 = %+v", q.Select[0])
	}
	if q.Select[2].Agg != AggAvg || q.Select[2].Col.Column != "age" {
		t.Errorf("item 2 = %+v", q.Select[2])
	}
	if _, err := Parse("SELECT FOO(age) FROM Patient"); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := Parse("SELECT SUM(*) FROM Patient"); err == nil {
		t.Error("SUM(*) accepted")
	}
	if _, err := Parse("SELECT SUM(age FROM Patient"); err == nil {
		t.Error("missing ) accepted")
	}
}

func TestParseGroupBy(t *testing.T) {
	q, err := Parse("SELECT diagnosis, COUNT(*) FROM Diagnosis GROUP BY diagnosis ORDER BY diagnosis LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if q.GroupBy == nil || q.GroupBy.Column != "diagnosis" {
		t.Errorf("GroupBy = %+v", q.GroupBy)
	}
}

func TestPlanAggregateValidation(t *testing.T) {
	schema := medSchema(t)
	// Plain column without GROUP BY alongside an aggregate: rejected.
	q, _ := Parse("SELECT age, COUNT(*) FROM Patient")
	if _, err := BuildPlan(q, schema); !errors.Is(err, ErrUnsupported) {
		t.Errorf("ungrouped mixed select: %v", err)
	}
	// GROUP BY without aggregates: rejected.
	q, _ = Parse("SELECT age FROM Patient GROUP BY age")
	if _, err := BuildPlan(q, schema); !errors.Is(err, ErrUnsupported) {
		t.Errorf("GROUP BY without aggregates: %v", err)
	}
	// SUM over a string column: rejected.
	q, _ = Parse("SELECT SUM(name) FROM Patient")
	if _, err := BuildPlan(q, schema); !errors.Is(err, ErrUnsupported) {
		t.Errorf("SUM(string): %v", err)
	}
}

func TestExecuteGlobalAggregates(t *testing.T) {
	res := exec(t, "SELECT COUNT(*), SUM(age), AVG(age), MIN(age), MAX(age) FROM Patient WHERE 30 <= age AND age <= 50")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	row := res.Rows[0]
	// Brute-force the same aggregates.
	_, src := medData(t)
	all, _ := src.FetchAll("Patient")
	var count, sum, minA, maxA int64
	minA = 1 << 62
	for _, tp := range all.Tuples {
		a := tp[2].Int
		if a < 30 || a > 50 {
			continue
		}
		count++
		sum += a
		if a < minA {
			minA = a
		}
		if a > maxA {
			maxA = a
		}
	}
	want := []int64{count, sum, sum / count, minA, maxA}
	for i, w := range want {
		if row[i].Int != w {
			t.Errorf("aggregate %d (%s) = %d, want %d", i, res.Columns[i].Column, row[i].Int, w)
		}
	}
}

func TestExecuteGroupBy(t *testing.T) {
	res := exec(t, "SELECT diagnosis, COUNT(*) FROM Diagnosis GROUP BY diagnosis")
	if len(res.Rows) == 0 {
		t.Fatal("no groups")
	}
	// Counts per group sum to the relation size, and group keys are
	// sorted and distinct.
	_, src := medData(t)
	all, _ := src.FetchAll("Diagnosis")
	var total int64
	seen := map[string]bool{}
	for _, row := range res.Rows {
		name := row[0].Str
		if seen[name] {
			t.Fatalf("duplicate group %q", name)
		}
		seen[name] = true
		total += row[1].Int
	}
	if total != int64(all.Len()) {
		t.Errorf("group counts sum to %d, relation has %d", total, all.Len())
	}
}

func TestExecuteGroupByWithLimitAndOrder(t *testing.T) {
	res := exec(t, "SELECT diagnosis, COUNT(*) FROM Diagnosis GROUP BY diagnosis ORDER BY diagnosis DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Str < res.Rows[1][0].Str {
		t.Error("DESC ordering violated")
	}
	// ORDER BY a non-group column with aggregates is unsupported.
	schema, src := medData(t)
	q, _ := Parse("SELECT diagnosis, COUNT(*) FROM Diagnosis GROUP BY diagnosis ORDER BY patient_id")
	plan, err := BuildPlan(q, schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(plan, schema, src); !errors.Is(err, ErrUnsupported) {
		t.Errorf("ORDER BY non-group column: %v", err)
	}
}

func TestExecuteAggregateEmptyInput(t *testing.T) {
	res := exec(t, "SELECT COUNT(*), SUM(age) FROM Patient WHERE age = 0")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].Int != 0 || res.Rows[0][1].Int != 0 {
		t.Errorf("empty aggregates = %v", res.Rows[0])
	}
}

func TestExecuteAggregateOverJoin(t *testing.T) {
	res := exec(t, `SELECT COUNT(*) FROM Patient, Diagnosis
		WHERE Patient.patient_id = Diagnosis.patient_id AND 30 <= age AND age <= 60`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Cross-check with the projection form.
	plain := exec(t, `SELECT Diagnosis.prescription_id FROM Patient, Diagnosis
		WHERE Patient.patient_id = Diagnosis.patient_id AND 30 <= age AND age <= 60`)
	if res.Rows[0][0].Int != int64(len(plain.Rows)) {
		t.Errorf("COUNT(*) = %d, projection has %d rows", res.Rows[0][0].Int, len(plain.Rows))
	}
}

func TestParseIn(t *testing.T) {
	q, err := Parse("SELECT * FROM Patient WHERE age IN (30, 40, 50)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Where) != 1 || q.Where[0].Op != OpIn || len(q.Where[0].Right.List) != 3 {
		t.Fatalf("IN parse = %+v", q.Where)
	}
	if _, err := Parse("SELECT * FROM R WHERE x IN ()"); err == nil {
		t.Error("empty IN list accepted")
	}
	if _, err := Parse("SELECT * FROM R WHERE x IN (1, y)"); err == nil {
		t.Error("column inside IN list accepted")
	}
	if _, err := Parse("SELECT * FROM R WHERE x IN (1, 2"); err == nil {
		t.Error("unclosed IN list accepted")
	}
}

func TestPlanInPushesConvexHull(t *testing.T) {
	p := mustPlan(t, "SELECT * FROM Patient WHERE age IN (50, 30, 40)")
	s := p.Scans[0]
	if s.Attribute != "age" || s.Range != (rangeset.Range{Lo: 30, Hi: 50}) {
		t.Errorf("IN scan = %+v, want age in [30,50]", s)
	}
	if len(s.Residual) != 1 || s.Residual[0].Op != OpIn {
		t.Errorf("IN residual = %v", s.Residual)
	}
}

func TestPlanInOverStringsIsResidualOnly(t *testing.T) {
	p := mustPlan(t, "SELECT * FROM Diagnosis WHERE diagnosis IN ('Asthma', 'Eczema')")
	s := p.Scans[0]
	if s.Selective() {
		t.Errorf("string IN pushed a range: %+v", s)
	}
	if len(s.Residual) != 1 {
		t.Errorf("residuals = %v", s.Residual)
	}
}

func TestExecuteIn(t *testing.T) {
	res := exec(t, "SELECT age FROM Patient WHERE age IN (30, 40, 50)")
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		a := row[0].Int
		if a != 30 && a != 40 && a != 50 {
			t.Fatalf("IN leaked age %d", a)
		}
	}
	// Count agrees with three equality queries.
	want := 0
	for _, v := range []string{"30", "40", "50"} {
		r := exec(t, "SELECT age FROM Patient WHERE age = "+v)
		want += len(r.Rows)
	}
	if len(res.Rows) != want {
		t.Errorf("IN returned %d rows, equalities total %d", len(res.Rows), want)
	}
}

func TestExecuteInOverStrings(t *testing.T) {
	res := exec(t, "SELECT diagnosis FROM Diagnosis WHERE diagnosis IN ('Asthma', 'Eczema')")
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		if s := row[0].Str; s != "Asthma" && s != "Eczema" {
			t.Fatalf("string IN leaked %q", s)
		}
	}
}

func TestParseQuotedStringEscapes(t *testing.T) {
	q, err := Parse("SELECT * FROM R WHERE s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Where[0].Right.Lit.Str; got != "it's" {
		t.Errorf("escaped literal = %q, want %q", got, "it's")
	}
	// Round trip through String().
	if _, err := Parse(q.String()); err != nil {
		t.Errorf("re-parse of %q: %v", q.String(), err)
	}
	// Double-quoted form with embedded double quote.
	q, err = Parse(`SELECT * FROM R WHERE s = "a""b"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Where[0].Right.Lit.Str; got != `a"b` {
		t.Errorf("escaped literal = %q", got)
	}
}

func TestExecuteDistinct(t *testing.T) {
	res := exec(t, "SELECT DISTINCT diagnosis FROM Diagnosis")
	seen := map[string]bool{}
	for _, row := range res.Rows {
		if seen[row[0].Str] {
			t.Fatalf("duplicate %q survived DISTINCT", row[0].Str)
		}
		seen[row[0].Str] = true
	}
	// Matches the number of groups from GROUP BY.
	grouped := exec(t, "SELECT diagnosis, COUNT(*) FROM Diagnosis GROUP BY diagnosis")
	if len(res.Rows) != len(grouped.Rows) {
		t.Errorf("DISTINCT found %d values, GROUP BY %d", len(res.Rows), len(grouped.Rows))
	}
}

func TestExecuteDistinctWithOrderAndLimit(t *testing.T) {
	res := exec(t, "SELECT DISTINCT diagnosis FROM Diagnosis ORDER BY diagnosis LIMIT 3")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i-1][0].Str >= res.Rows[i][0].Str {
			t.Fatal("not sorted or not distinct")
		}
	}
}

func TestPlanDistinctWithAggregatesRejected(t *testing.T) {
	q, err := Parse("SELECT DISTINCT COUNT(*) FROM Patient")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPlan(q, medSchema(t)); !errors.Is(err, ErrUnsupported) {
		t.Errorf("err = %v, want ErrUnsupported", err)
	}
}
