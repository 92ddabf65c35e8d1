package relation

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"p2prange/internal/rangeset"
)

// Type is a column type. All types order-embed into int64 so any column
// can carry a range predicate; strings embed by dictionary-free hashing
// and therefore support only equality predicates (encoded as degenerate
// ranges).
type Type int

const (
	// TInt is a 64-bit integer column.
	TInt Type = iota
	// TString is a string column (equality predicates only).
	TString
	// TDate is a calendar date, stored as days since 1970-01-01.
	TDate
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TString:
		return "string"
	case TDate:
		return "date"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is one typed cell. Exactly one of Int/Str is meaningful, per Kind;
// dates use Int as a day number.
type Value struct {
	Kind Type
	Int  int64
	Str  string
}

// IntVal builds an integer value.
func IntVal(v int64) Value { return Value{Kind: TInt, Int: v} }

// StrVal builds a string value.
func StrVal(s string) Value { return Value{Kind: TString, Str: s} }

// DateVal builds a date value from a civil date.
func DateVal(year int, month time.Month, day int) Value {
	return Value{Kind: TDate, Int: DayNumber(year, month, day)}
}

// DayNumber converts a civil date to days since the Unix epoch.
func DayNumber(year int, month time.Month, day int) int64 {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return t.Unix() / 86400
}

// ValidDate reports whether year, month and day name a real calendar
// date: one that round-trips through time.Date, which would otherwise
// normalise 2000-02-31 to 2000-03-02.
func ValidDate(year int, month time.Month, day int) bool {
	y, m, d := time.Date(year, month, day, 0, 0, 0, 0, time.UTC).Date()
	return y == year && m == month && d == day
}

// DayToDate converts a day number back to a civil date.
func DayToDate(days int64) (year int, month time.Month, day int) {
	t := time.Unix(days*86400, 0).UTC()
	return t.Year(), t.Month(), t.Day()
}

// Ordinal returns the value's position in the total order used by range
// predicates. String values are not ordered (see StringKey); calling
// Ordinal on one returns its 32-bit key, which is only meaningful for
// equality.
func (v Value) Ordinal() int64 {
	if v.Kind == TString {
		return StringKey(v.Str)
	}
	return v.Int
}

// Equal reports deep equality of two values.
func (v Value) Equal(w Value) bool { return v.Kind == w.Kind && v.Int == w.Int && v.Str == w.Str }

// String formats the value.
func (v Value) String() string {
	switch v.Kind {
	case TString:
		return fmt.Sprintf("%q", v.Str)
	case TDate:
		y, m, d := DayToDate(v.Int)
		return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
	default:
		return fmt.Sprintf("%d", v.Int)
	}
}

// StringKey maps a string to a stable 32-bit integer for equality
// predicates over string attributes (FNV-1a). The paper restricts range
// selection to ordered attributes; string equality selects become the
// degenerate range [key, key].
func StringKey(s string) int64 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return int64(h)
}

// Column is one attribute of a relation schema.
type Column struct {
	Name string
	Type Type
}

// RelationSchema describes one relation.
type RelationSchema struct {
	Name    string
	Columns []Column
}

// ColIndex returns the position of the named column.
func (rs *RelationSchema) ColIndex(name string) (int, bool) {
	for i, c := range rs.Columns {
		if c.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Col returns the named column.
func (rs *RelationSchema) Col(name string) (Column, bool) {
	if i, ok := rs.ColIndex(name); ok {
		return rs.Columns[i], true
	}
	return Column{}, false
}

// Schema is the global schema shared by every peer in the system.
type Schema struct {
	rels  map[string]*RelationSchema
	order []string
}

// NewSchema builds a schema from relation definitions.
func NewSchema(rels ...*RelationSchema) (*Schema, error) {
	s := &Schema{rels: make(map[string]*RelationSchema)}
	for _, r := range rels {
		if _, dup := s.rels[r.Name]; dup {
			return nil, fmt.Errorf("relation: duplicate relation %q", r.Name)
		}
		seen := make(map[string]bool)
		for _, c := range r.Columns {
			if seen[c.Name] {
				return nil, fmt.Errorf("relation: duplicate column %s.%s", r.Name, c.Name)
			}
			seen[c.Name] = true
		}
		s.rels[r.Name] = r
		s.order = append(s.order, r.Name)
	}
	return s, nil
}

// Relation looks up a relation schema by name.
func (s *Schema) Relation(name string) (*RelationSchema, bool) {
	r, ok := s.rels[name]
	return r, ok
}

// Relations returns the relation names in definition order.
func (s *Schema) Relations() []string { return append([]string(nil), s.order...) }

// Tuple is one row; Tuple[i] corresponds to schema column i.
type Tuple []Value

// Relation is a materialized set of tuples under one schema. Optional
// sorted indexes (BuildIndex) accelerate SelectRange and AttributeRange,
// and hash joins keep their build-side index with the relation
// (JoinIndex); Insert and SortBy invalidate both.
type Relation struct {
	Schema *RelationSchema
	Tuples []Tuple

	indexes map[string][]int // attribute -> tuple positions sorted by ordinal

	joinMu sync.Mutex                   // serializes JoinIndex builds
	joins  atomic.Pointer[[]*JoinIndex] // copy-on-write; nil when none built
}

// ErrNoColumn reports a reference to a column absent from the schema.
var ErrNoColumn = errors.New("relation: no such column")

// NewRelation returns an empty relation under rs.
func NewRelation(rs *RelationSchema) *Relation {
	return &Relation{Schema: rs}
}

// Insert appends a tuple, validating arity and column types.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != len(r.Schema.Columns) {
		return fmt.Errorf("relation: %s expects %d columns, got %d",
			r.Schema.Name, len(r.Schema.Columns), len(t))
	}
	for i, v := range t {
		if v.Kind != r.Schema.Columns[i].Type {
			return fmt.Errorf("relation: %s.%s expects %s, got %s",
				r.Schema.Name, r.Schema.Columns[i].Name, r.Schema.Columns[i].Type, v.Kind)
		}
	}
	r.Tuples = append(r.Tuples, t)
	r.indexes = nil // any index is now stale
	r.dropJoins()
	return nil
}

// Len returns the tuple count.
func (r *Relation) Len() int { return len(r.Tuples) }

// SelectRange returns the tuples whose attribute ordinal falls in rg —
// the horizontal partition defined by the predicate lo <= attr <= hi.
func (r *Relation) SelectRange(attribute string, rg rangeset.Range) (*Relation, error) {
	i, ok := r.Schema.ColIndex(attribute)
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoColumn, r.Schema.Name, attribute)
	}
	if idx, indexed := r.sortedIndex(attribute); indexed {
		return r.selectViaIndex(idx, i, rg), nil
	}
	// Count first, so the selection is one exact allocation.
	n := 0
	for _, t := range r.Tuples {
		if rg.Contains(t[i].Ordinal()) {
			n++
		}
	}
	out := NewRelation(r.Schema)
	if n > 0 {
		out.Tuples = make([]Tuple, 0, n)
		for _, t := range r.Tuples {
			if rg.Contains(t[i].Ordinal()) {
				out.Tuples = append(out.Tuples, t)
			}
		}
	}
	return out, nil
}

// AttributeRange returns the [min, max] ordinal of the attribute across
// all tuples, for padding clamps and workload domains. An indexed
// attribute reads its index's first and last entries; any other scans.
func (r *Relation) AttributeRange(attribute string) (rangeset.Range, error) {
	i, ok := r.Schema.ColIndex(attribute)
	if !ok {
		return rangeset.Range{}, fmt.Errorf("%w: %s.%s", ErrNoColumn, r.Schema.Name, attribute)
	}
	if len(r.Tuples) == 0 {
		return rangeset.Range{}, errors.New("relation: empty relation has no attribute range")
	}
	if idx, ok := r.sortedIndex(attribute); ok {
		return rangeset.Range{
			Lo: r.Tuples[idx[0]][i].Ordinal(),
			Hi: r.Tuples[idx[len(idx)-1]][i].Ordinal(),
		}, nil
	}
	lo, hi := r.Tuples[0][i].Ordinal(), r.Tuples[0][i].Ordinal()
	for _, t := range r.Tuples[1:] {
		v := t[i].Ordinal()
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return rangeset.Range{Lo: lo, Hi: hi}, nil
}

// SortBy orders tuples by the attribute's ordinal, ascending; stable.
func (r *Relation) SortBy(attribute string) error {
	i, ok := r.Schema.ColIndex(attribute)
	if !ok {
		return fmt.Errorf("%w: %s.%s", ErrNoColumn, r.Schema.Name, attribute)
	}
	sort.SliceStable(r.Tuples, func(a, b int) bool {
		return r.Tuples[a][i].Ordinal() < r.Tuples[b][i].Ordinal()
	})
	r.indexes = nil // tuple positions changed
	r.dropJoins()
	return nil
}

// Partition is a materialized horizontal partition: the descriptor plus
// the tuple data. It is what a holder peer serves when another peer
// fetches a matched partition.
type Partition struct {
	Relation  string
	Attribute string
	Range     rangeset.Range
	Data      *Relation
}

// Partition materializes the horizontal partition of r for rg over
// attribute.
func (r *Relation) Partition(attribute string, rg rangeset.Range) (*Partition, error) {
	data, err := r.SelectRange(attribute, rg)
	if err != nil {
		return nil, err
	}
	return &Partition{
		Relation:  r.Schema.Name,
		Attribute: attribute,
		Range:     rg,
		Data:      data,
	}, nil
}
