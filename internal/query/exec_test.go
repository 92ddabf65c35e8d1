package query

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
)

// runSQL parses, plans and executes sql over rels.
func runSQL(t testing.TB, schema *relation.Schema, rels map[string]*relation.Relation, sql string) *Result {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	plan, err := BuildPlan(q, schema)
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	res, err := Execute(plan, schema, NewRelationSource(rels))
	if err != nil {
		t.Fatalf("execute %q: %v", sql, err)
	}
	return res
}

// separatorRels holds two physicians whose (name, specialization) pairs
// concatenate to the same text under a "kind|int|str;" key per column,
// and one prescription matching only the first of them on both strings.
func separatorRels(t *testing.T, schema *relation.Schema) map[string]*relation.Relation {
	t.Helper()
	rels := make(map[string]*relation.Relation)
	for _, name := range []string{"Physician", "Prescription"} {
		rs, _ := schema.Relation(name)
		rels[name] = relation.NewRelation(rs)
	}
	for _, tu := range []relation.Tuple{
		{relation.IntVal(1), relation.StrVal("a;1|0|b"), relation.IntVal(40), relation.StrVal("c")},
		{relation.IntVal(2), relation.StrVal("a"), relation.IntVal(50), relation.StrVal("b;1|0|c")},
	} {
		if err := rels["Physician"].Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	err := rels["Prescription"].Insert(relation.Tuple{
		relation.IntVal(7), relation.DateVal(2002, time.March, 1), relation.StrVal("a;1|0|b"), relation.StrVal("c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rels
}

func TestExecuteDistinctSeparatorsInStrings(t *testing.T) {
	schema := relation.MedicalSchema()
	res := runSQL(t, schema, separatorRels(t, schema), "SELECT DISTINCT name, specialization FROM Physician")
	if len(res.Rows) != 2 {
		t.Fatalf("DISTINCT over two different rows returned %v", res.Rows)
	}
}

func TestExecuteMultiPredicateStringJoin(t *testing.T) {
	schema := relation.MedicalSchema()
	res := runSQL(t, schema, separatorRels(t, schema), `SELECT Physician.physician_id FROM Physician, Prescription
		WHERE Physician.name = Prescription.prescription AND Physician.specialization = Prescription.comments`)
	want := []relation.Tuple{{relation.IntVal(1)}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("join returned %v, want only physician 1", res.Rows)
	}
}

// --- Property test against a nested-loop reference ---

// refCol is one column of the random schema: relation, column name and
// the column's position in its relation.
type refCol struct {
	rel, name string
	at        int
}

func (c refCol) String() string { return c.rel + "." + c.name }

// refIn is an integer IN list on one column: the planner pushes the
// list's hull and rechecks membership as a residual filter.
type refIn struct {
	at   int64
	vals []int64
}

// refAgg is one aggregate of a random query.
type refAgg struct {
	kind AggKind
	col  refCol
	star bool
}

// refQuery is a random query in structured form: the reference
// evaluates it directly, and Execute runs its SQL text.
type refQuery struct {
	from     []string
	joins    [][2]refCol
	ranges   map[string][3]int64 // relation -> column index, lo, hi
	ins      map[string]refIn    // relation -> integer IN list
	eqs      map[string][2]int64 // relation -> column index, value
	project  []refCol            // empty: every column of every relation
	aggs     []refAgg
	groupBy  *refCol
	distinct bool
	orderBy  *refCol
	desc     bool
	limit    int
}

// The random schema: three relations of the same shape, two string
// columns each so that multi-column keys can collide, plus a date in T so
// that int = date joins must never match.
var refSchema = func() *relation.Schema {
	cols := func(last relation.Type) []relation.Column {
		return []relation.Column{{Name: "n", Type: relation.TInt}, {Name: "s", Type: relation.TString}, {Name: "t", Type: relation.TString}, {Name: "m", Type: last}}
	}
	s, err := relation.NewSchema(
		&relation.RelationSchema{Name: "R", Columns: cols(relation.TInt)},
		&relation.RelationSchema{Name: "S", Columns: cols(relation.TInt)},
		&relation.RelationSchema{Name: "T", Columns: cols(relation.TDate)},
	)
	if err != nil {
		panic(err)
	}
	return s
}()

// refNames are the random schema's column names, by position.
var refNames = []string{"n", "s", "t", "m"}

// refStrings are string cells chosen to collide under a key that joins
// columns with separators: the pairs ("a;1|0|b", "c") and
// ("a", "b;1|0|c") both read "1|0|a;1|0|b;1|0|c;" under a
// "kind|int|str;" key per column.
var refStrings = []string{"a;1|0|b", "c", "a", "b;1|0|c", "|;"}

func randomRels(rng *rand.Rand) map[string]*relation.Relation {
	rels := make(map[string]*relation.Relation)
	for _, name := range []string{"R", "S", "T"} {
		rs, _ := refSchema.Relation(name)
		r := relation.NewRelation(rs)
		for i, n := 0, rng.Intn(9); i < n; i++ {
			m := relation.IntVal(int64(rng.Intn(4)))
			if name == "T" {
				m.Kind = relation.TDate
			}
			// Half the (s, t) pairs are one of the two that collide.
			s, t := refStrings[rng.Intn(len(refStrings))], refStrings[rng.Intn(len(refStrings))]
			if rng.Intn(2) == 0 {
				k := 2 * rng.Intn(2)
				s, t = refStrings[k], refStrings[k+1]
			}
			tu := relation.Tuple{relation.IntVal(int64(rng.Intn(4))), relation.StrVal(s), relation.StrVal(t), m}
			if err := r.Insert(tu); err != nil {
				panic(err)
			}
		}
		rels[name] = r
	}
	return rels
}

func randomQuery(rng *rand.Rand) refQuery {
	q := refQuery{limit: -1, ranges: map[string][3]int64{}, ins: map[string]refIn{}, eqs: map[string][2]int64{}}
	for _, i := range rng.Perm(3)[:1+rng.Intn(3)] {
		q.from = append(q.from, []string{"R", "S", "T"}[i])
	}
	col := func(rel string) refCol {
		at := rng.Intn(4)
		return refCol{rel, refNames[at], at}
	}
	anyCol := func() refCol { return col(q.from[rng.Intn(len(q.from))]) }
	// Join each relation to an earlier one on one or two predicates of
	// like columns (n = n, s = s, t = t, or m = m across int and date), and
	// sometimes add a cycle-closing predicate or leave a cross product.
	for i := 1; i < len(q.from); i++ {
		if rng.Intn(6) == 0 {
			continue
		}
		l := q.from[rng.Intn(i)]
		for k, n := 0, 1+rng.Intn(2); k < n; k++ {
			c := col(l)
			a, b := c, refCol{q.from[i], c.name, c.at}
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			q.joins = append(q.joins, [2]refCol{a, b})
		}
	}
	if len(q.from) == 3 && rng.Intn(3) == 0 {
		c := col(q.from[0])
		q.joins = append(q.joins, [2]refCol{c, {q.from[2], c.name, c.at}})
	}
	for _, rel := range q.from {
		if rng.Intn(2) == 0 {
			at := int64(3 * rng.Intn(2)) // n or m
			lo := int64(rng.Intn(3))
			q.ranges[rel] = [3]int64{at, lo, lo + int64(rng.Intn(3))}
		}
	}
	// Residual comparisons: an integer IN list on the selected column
	// (n when there is no range), its first value inside the range so the
	// pushed hull is never empty, and equality on the other ordinal
	// column (m is a date in T), which the planner demotes to a residual
	// filter beside the selection.
	for _, rel := range q.from {
		r, ranged := q.ranges[rel]
		if !ranged {
			r = [3]int64{0, 0, 3}
		}
		if rng.Intn(3) == 0 {
			in := refIn{at: r[0], vals: []int64{r[1] + rng.Int63n(r[2]-r[1]+1)}}
			for i, n := 0, rng.Intn(3); i < n; i++ {
				in.vals = append(in.vals, rng.Int63n(5))
			}
			q.ins[rel] = in
		}
		if _, in := q.ins[rel]; (ranged || in) && rng.Intn(3) == 0 {
			q.eqs[rel] = [2]int64{3 - r[0], rng.Int63n(4)}
		}
	}
	switch rng.Intn(3) {
	case 0: // SELECT *
	case 1:
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			q.project = append(q.project, anyCol())
		}
		q.distinct = rng.Intn(2) == 0
	case 2:
		if rng.Intn(2) == 0 {
			g := anyCol()
			q.groupBy = &g
		}
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			a := refAgg{kind: AggKind(1 + rng.Intn(5)), col: anyCol()}
			if (a.col.name == "s" || a.col.name == "t") && (a.kind == AggSum || a.kind == AggAvg) {
				a.col.name, a.col.at = "n", 0
			}
			a.star = a.kind == AggCount && rng.Intn(2) == 0
			q.aggs = append(q.aggs, a)
		}
	}
	if rng.Intn(2) == 0 {
		if len(q.aggs) == 0 {
			o := anyCol()
			q.orderBy = &o
			q.desc = rng.Intn(2) == 0
		} else if q.groupBy != nil {
			q.orderBy = q.groupBy
			q.desc = rng.Intn(2) == 0
		}
	}
	if rng.Intn(3) == 0 {
		q.limit = rng.Intn(5)
	}
	return q
}

func (q refQuery) sql() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.distinct {
		b.WriteString("DISTINCT ")
	}
	var items []string
	if q.groupBy != nil {
		items = append(items, q.groupBy.String())
	}
	for _, a := range q.aggs {
		if a.star {
			items = append(items, "COUNT(*)")
		} else {
			items = append(items, fmt.Sprintf("%s(%s)", a.kind, a.col))
		}
	}
	for _, c := range q.project {
		items = append(items, c.String())
	}
	if len(items) == 0 {
		items = []string{"*"}
	}
	b.WriteString(strings.Join(items, ", "))
	b.WriteString(" FROM " + strings.Join(q.from, ", "))
	var where []string
	for _, j := range q.joins {
		where = append(where, fmt.Sprintf("%s = %s", j[0], j[1]))
	}
	for _, rel := range q.from {
		if r, ok := q.ranges[rel]; ok {
			where = append(where, fmt.Sprintf("%s.%s BETWEEN %d AND %d", rel, refNames[r[0]], r[1], r[2]))
		}
		if in, ok := q.ins[rel]; ok {
			vals := make([]string, len(in.vals))
			for i, v := range in.vals {
				vals[i] = fmt.Sprint(v)
			}
			where = append(where, fmt.Sprintf("%s.%s IN (%s)", rel, refNames[in.at], strings.Join(vals, ", ")))
		}
		if e, ok := q.eqs[rel]; ok {
			where = append(where, fmt.Sprintf("%s.%s = %d", rel, refNames[e[0]], e[1]))
		}
	}
	if len(where) > 0 {
		b.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	if q.groupBy != nil {
		b.WriteString(" GROUP BY " + q.groupBy.String())
	}
	if q.orderBy != nil {
		b.WriteString(" ORDER BY " + q.orderBy.String())
		if q.desc {
			b.WriteString(" DESC")
		}
	}
	if q.limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.limit)
	}
	return b.String()
}

// reference evaluates q by nested loops over every combination of
// tuples, in lexicographic order of their positions in the FROM
// relations — the order a left-deep join with build tuples in table
// order produces.
func (q refQuery) reference(rels map[string]*relation.Relation) []relation.Tuple {
	slot := make(map[string]int)
	for i, rel := range q.from {
		slot[rel] = i
	}
	get := func(b []relation.Tuple, c refCol) relation.Value { return b[slot[c.rel]][c.at] }
	var bindings [][]relation.Tuple
	var walk func(b []relation.Tuple)
	walk = func(b []relation.Tuple) {
		if len(b) == len(q.from) {
			for _, j := range q.joins {
				if get(b, j[0]) != get(b, j[1]) {
					return
				}
			}
			bindings = append(bindings, append([]relation.Tuple(nil), b...))
			return
		}
		rel := q.from[len(b)]
		for _, tu := range rels[rel].Tuples {
			if r, ok := q.ranges[rel]; ok && (tu[r[0]].Int < r[1] || tu[r[0]].Int > r[2]) {
				continue
			}
			if in, ok := q.ins[rel]; ok && !slices.Contains(in.vals, tu[in.at].Int) {
				continue
			}
			if e, ok := q.eqs[rel]; ok && tu[e[0]].Int != e[1] {
				continue
			}
			walk(append(b, tu))
		}
	}
	walk(nil)

	if len(q.aggs) > 0 {
		return q.referenceAggregate(bindings, get)
	}
	var rows []relation.Tuple
	for _, b := range bindings {
		var out relation.Tuple
		if len(q.project) == 0 {
			for _, tu := range b {
				out = append(out, tu...)
			}
		}
		for _, c := range q.project {
			out = append(out, get(b, c))
		}
		rows = append(rows, out)
	}
	if q.distinct {
		var keepRows []relation.Tuple
		var keepBindings [][]relation.Tuple
	next:
		for i, r := range rows {
			for _, k := range keepRows {
				if reflect.DeepEqual(k, r) {
					continue next
				}
			}
			keepRows = append(keepRows, r)
			keepBindings = append(keepBindings, bindings[i])
		}
		rows, bindings = keepRows, keepBindings
	}
	if q.orderBy != nil {
		order := make([]int, len(rows))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(i, j int) bool {
			a, b := get(bindings[order[i]], *q.orderBy), get(bindings[order[j]], *q.orderBy)
			if q.desc {
				a, b = b, a
			}
			return valueLess(a, b)
		})
		sorted := make([]relation.Tuple, len(rows))
		for i, o := range order {
			sorted[i] = rows[o]
		}
		rows = sorted
	}
	if q.limit >= 0 && len(rows) > q.limit {
		rows = rows[:q.limit]
	}
	return rows
}

func (q refQuery) referenceAggregate(bindings [][]relation.Tuple, get func([]relation.Tuple, refCol) relation.Value) []relation.Tuple {
	type group struct {
		key  relation.Value
		rows [][]relation.Tuple
	}
	var groups []*group
	for _, b := range bindings {
		var key relation.Value
		if q.groupBy != nil {
			key = get(b, *q.groupBy)
		}
		var g *group
		for _, h := range groups {
			if h.key == key {
				g = h
			}
		}
		if g == nil {
			g = &group{key: key}
			groups = append(groups, g)
		}
		g.rows = append(g.rows, b)
	}
	if q.groupBy == nil && len(groups) == 0 {
		groups = append(groups, &group{})
	}
	sort.SliceStable(groups, func(i, j int) bool { return valueLess(groups[i].key, groups[j].key) })
	var rows []relation.Tuple
	for _, g := range groups {
		var out relation.Tuple
		if q.groupBy != nil {
			out = append(out, g.key)
		}
		for _, a := range q.aggs {
			n := int64(len(g.rows))
			var sum int64
			var lo, hi relation.Value
			for i, b := range g.rows {
				if a.star {
					break
				}
				v := get(b, a.col)
				sum += v.Ordinal()
				if i == 0 || valueLess(v, lo) {
					lo = v
				}
				if i == 0 || valueLess(hi, v) {
					hi = v
				}
			}
			switch a.kind {
			case AggCount:
				out = append(out, relation.IntVal(n))
			case AggSum:
				out = append(out, relation.IntVal(sum))
			case AggAvg:
				if n == 0 {
					out = append(out, relation.IntVal(0))
				} else {
					out = append(out, relation.IntVal(sum/n))
				}
			case AggMin:
				out = append(out, lo)
			case AggMax:
				out = append(out, hi)
			}
		}
		rows = append(rows, out)
	}
	if q.desc {
		for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
			rows[i], rows[j] = rows[j], rows[i]
		}
	}
	if q.limit >= 0 && len(rows) > q.limit {
		rows = rows[:q.limit]
	}
	return rows
}

// TestExecuteMatchesNestedLoopReference runs seeded random queries —
// 1- to 3-way joins on one or two predicates (cycles and cross products
// included), range selects, DISTINCT, GROUP BY, ORDER BY and LIMIT —
// over small random relations whose strings contain the separators '|'
// and ';', and requires Execute's rows, in order, to equal the
// reference's.
func TestExecuteMatchesNestedLoopReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var joins, multi, nonEmpty, ins, eqs int
	for i := 0; i < 3000; i++ {
		rels := randomRels(rng)
		q := randomQuery(rng)
		sql := q.sql()
		got := runSQL(t, refSchema, rels, sql).Rows
		want := q.reference(rels)
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("case %d: %s\ngot  %v\nwant %v", i, sql, got, want)
		}
		if len(q.from) > 1 && len(q.joins) > 0 {
			joins++
		}
		if len(q.joins) > len(q.from)-1 {
			multi++
		}
		if len(want) > 0 {
			nonEmpty++
		}
		ins += len(q.ins)
		eqs += len(q.eqs)
	}
	// Guard the generator: the interesting shapes must actually occur.
	if joins < 1500 || multi < 800 || nonEmpty < 1100 || ins < 1500 || eqs < 1000 {
		t.Fatalf("generator too narrow: %d joins, %d multi-predicate, %d non-empty, %d IN lists, %d residual equalities",
			joins, multi, nonEmpty, ins, eqs)
	}
}

// BenchmarkExecuteJoin runs the Patient age-range ⋈ Diagnosis join over
// 1,500 patients and 1,500 diagnoses: a selective leaf, a full scan and
// a hash join whose build side is the whole Diagnosis relation.
func BenchmarkExecuteJoin(b *testing.B) {
	rels, err := relation.GenerateMedical(relation.MedicalConfig{Patients: 1500, Physicians: 50, Diagnoses: 1500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	schema := relation.MedicalSchema()
	q, err := Parse("SELECT Patient.name, Diagnosis.diagnosis FROM Patient, Diagnosis WHERE 30 <= age AND age <= 45 AND Patient.patient_id = Diagnosis.patient_id")
	if err != nil {
		b.Fatal(err)
	}
	plan, err := BuildPlan(q, schema)
	if err != nil {
		b.Fatal(err)
	}
	src := NewRelationSource(rels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Execute(plan, schema, src)
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("execute: %d rows, %v", len(res.Rows), err)
		}
	}
}

// TestJoinSeesInsertAndSortBy joins against a build relation, then
// inserts into it and re-sorts it: each later join must see the new
// tuple and the new order, not the index the first join kept.
func TestJoinSeesInsertAndSortBy(t *testing.T) {
	schema := relation.MedicalSchema()
	rels := make(map[string]*relation.Relation)
	for _, name := range []string{"Patient", "Diagnosis"} {
		rs, _ := schema.Relation(name)
		rels[name] = relation.NewRelation(rs)
	}
	insert := func(rel string, tu relation.Tuple) {
		t.Helper()
		if err := rels[rel].Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	insert("Patient", relation.Tuple{relation.IntVal(1), relation.StrVal("Ann"), relation.IntVal(40)})
	insert("Diagnosis", relation.Tuple{relation.IntVal(1), relation.StrVal("Flu"), relation.IntVal(9), relation.IntVal(1)})
	insert("Diagnosis", relation.Tuple{relation.IntVal(1), relation.StrVal("Cold"), relation.IntVal(3), relation.IntVal(2)})
	const sql = "SELECT diagnosis FROM Patient, Diagnosis WHERE Patient.patient_id = Diagnosis.patient_id"
	diagnoses := func() []string {
		var out []string
		for _, r := range runSQL(t, schema, rels, sql).Rows {
			out = append(out, r[0].Str)
		}
		return out
	}
	if got := diagnoses(); !slices.Equal(got, []string{"Flu", "Cold"}) {
		t.Fatalf("first join = %v, want [Flu Cold]", got)
	}
	insert("Diagnosis", relation.Tuple{relation.IntVal(1), relation.StrVal("Gout"), relation.IntVal(5), relation.IntVal(3)})
	if got := diagnoses(); !slices.Equal(got, []string{"Flu", "Cold", "Gout"}) {
		t.Errorf("after Insert = %v, want [Flu Cold Gout]", got)
	}
	if err := rels["Diagnosis"].SortBy("physician_id"); err != nil {
		t.Fatal(err)
	}
	if got := diagnoses(); !slices.Equal(got, []string{"Cold", "Gout", "Flu"}) {
		t.Errorf("after SortBy = %v, want [Cold Gout Flu] (physician order)", got)
	}
}

// TestRelationSourceFetchesOnlyTheRequest pins the Source contract the
// executor relies on: RelationSource.Fetch returns exactly the tuples
// whose attribute lies inside the request — bounded, half-open either
// way, or missing the domain on either side — indexed or not.
func TestRelationSourceFetchesOnlyTheRequest(t *testing.T) {
	rels, err := relation.GenerateMedical(relation.MedicalConfig{Patients: 300, Physicians: 5, Diagnoses: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := rels["Patient"]
	dom, err := p.AttributeRange("age")
	if err != nil {
		t.Fatal(err)
	}
	ranges := []rangeset.Range{
		{Lo: 30, Hi: 50},
		{Lo: 65, Hi: math.MaxInt64},
		{Lo: math.MinInt64, Hi: 20},
		{Lo: math.MinInt64, Hi: dom.Lo - 1},
		{Lo: dom.Hi + 1, Hi: math.MaxInt64},
		{Lo: math.MinInt64, Hi: math.MaxInt64},
	}
	src := NewRelationSource(rels)
	for _, indexed := range []bool{false, true} {
		if indexed {
			if err := p.BuildIndex("age"); err != nil {
				t.Fatal(err)
			}
		}
		for _, rg := range ranges {
			data, _, err := src.Fetch("Patient", "age", rg, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, tu := range p.Tuples {
				if rg.Contains(tu[2].Int) {
					want++
				}
			}
			for _, tu := range data.Tuples {
				if !rg.Contains(tu[2].Int) {
					t.Fatalf("indexed=%v %v: fetched age %d outside the request", indexed, rg, tu[2].Int)
				}
			}
			if len(data.Tuples) != want {
				t.Errorf("indexed=%v %v: fetched %d tuple(s), want %d", indexed, rg, len(data.Tuples), want)
			}
		}
	}
}

// TestConcurrentJoinsShareOneBuildIndex runs one join from eight
// goroutines at once, each through its own source over the same base
// relations — the benchmark's eight peers sharing one *Relation. They
// race for the one join index Diagnosis keeps; under -race the lazy build
// and its readers must be clean, and every answer must equal the
// sequential one computed over a separate copy.
func TestConcurrentJoinsShareOneBuildIndex(t *testing.T) {
	gen := func() map[string]*relation.Relation {
		rels, err := relation.GenerateMedical(relation.MedicalConfig{Patients: 500, Physicians: 10, Diagnoses: 500, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		return rels
	}
	shared, ref := gen(), gen()
	schema := relation.MedicalSchema()
	const sql = "SELECT Patient.name, Diagnosis.diagnosis FROM Patient, Diagnosis WHERE 30 <= age AND age <= 50 AND Patient.patient_id = Diagnosis.patient_id"
	want := runSQL(t, schema, ref, sql).Rows
	if len(want) == 0 {
		t.Fatal("reference join is empty; the case tests nothing")
	}
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(q, schema)
	if err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := Execute(plan, schema, NewRelationSource(shared))
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			} else if !reflect.DeepEqual(res.Rows, want) {
				t.Errorf("goroutine %d: %d row(s) differ from the sequential %d", i, len(res.Rows), len(want))
			}
		}()
	}
	close(start)
	wg.Wait()
}
