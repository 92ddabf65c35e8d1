package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// WriteCSV serializes the relation: a header row of column names, then
// one record per tuple. Dates render as YYYY-MM-DD, strings verbatim
// (encoding/csv handles quoting).
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(r.Schema.Columns))
	for i, c := range r.Schema.Columns {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(header))
	for _, t := range r.Tuples {
		for i, v := range t {
			rec[i] = csvCell(v)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func csvCell(v Value) string {
	switch v.Kind {
	case TString:
		return v.Str
	case TDate:
		y, m, d := DayToDate(v.Int)
		return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
	default:
		return strconv.FormatInt(v.Int, 10)
	}
}

// ReadCSV parses a relation under rs from CSV produced by WriteCSV (or
// hand-written in the same shape). The header must name exactly the
// schema's columns, in any order; cells parse per the column type
// (integers, YYYY-MM-DD dates, strings verbatim).
func ReadCSV(rs *RelationSchema, rd io.Reader) (*Relation, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = len(rs.Columns)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: csv header: %w", err)
	}
	perm := make([]int, len(header)) // record position -> schema column
	seen := make(map[string]bool)
	for i, name := range header {
		name = strings.TrimSpace(name)
		j, ok := rs.ColIndex(name)
		if !ok {
			return nil, fmt.Errorf("relation: csv column %q not in schema %s", name, rs.Name)
		}
		if seen[name] {
			return nil, fmt.Errorf("relation: duplicate csv column %q", name)
		}
		seen[name] = true
		perm[i] = j
	}
	out := NewRelation(rs)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("relation: csv line %d: %w", line, err)
		}
		t := make(Tuple, len(rs.Columns))
		for i, cell := range rec {
			col := rs.Columns[perm[i]]
			v, err := parseCSVCell(col.Type, cell)
			if err != nil {
				return nil, fmt.Errorf("relation: csv line %d, column %s: %w", line, col.Name, err)
			}
			t[perm[i]] = v
		}
		if err := out.Insert(t); err != nil {
			return nil, fmt.Errorf("relation: csv line %d: %w", line, err)
		}
	}
}

func parseCSVCell(typ Type, cell string) (Value, error) {
	cell = strings.TrimSpace(cell)
	switch typ {
	case TInt:
		n, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("bad integer %q", cell)
		}
		return IntVal(n), nil
	case TDate:
		parts := strings.Split(cell, "-")
		if len(parts) != 3 || len(parts[0]) != 4 {
			return Value{}, fmt.Errorf("bad date %q (want YYYY-MM-DD)", cell)
		}
		y, err1 := strconv.Atoi(parts[0])
		m, err2 := strconv.Atoi(parts[1])
		d, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil || !ValidDate(y, time.Month(m), d) {
			return Value{}, fmt.Errorf("bad date %q", cell)
		}
		return DateVal(y, time.Month(m), d), nil
	default:
		return StrVal(cell), nil
	}
}
