package query

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
)

// Planning errors.
var (
	// ErrAmbiguous reports an unqualified column present in several FROM
	// relations.
	ErrAmbiguous = errors.New("query: ambiguous column")
	// ErrUnknownColumn reports a column absent from every FROM relation.
	ErrUnknownColumn = errors.New("query: unknown column")
	// ErrUnknownRelation reports a FROM relation absent from the schema.
	ErrUnknownRelation = errors.New("query: unknown relation")
	// ErrMultiAttribute reports range selects on two attributes of one
	// relation, which the paper's architecture excludes ("the selects on a
	// relation can be only on one attribute at a time").
	ErrMultiAttribute = errors.New("query: range selects on multiple attributes of one relation")
	// ErrEmptySelect reports contradictory range predicates (e.g. age > 50
	// and age < 30).
	ErrEmptySelect = errors.New("query: contradictory range predicates")
	// ErrUnsupported reports predicates outside the restricted dialect.
	ErrUnsupported = errors.New("query: unsupported predicate")
)

// Scan is a plan leaf: read one relation, optionally through a pushed-down
// range selection that the P2P layer resolves via the DHT.
type Scan struct {
	Relation string
	// Attribute and Range are set when a range selection was pushed down;
	// Attribute is empty for a full scan.
	Attribute string
	Range     rangeset.Range
	// Residual holds predicates re-checked on fetched tuples: string
	// equality (hashed ranges can collide) and any equality predicates on
	// non-selected attributes.
	Residual []Predicate
}

// Selective reports whether the scan carries a pushed-down range.
func (s Scan) Selective() bool { return s.Attribute != "" }

// Join is one equijoin predicate between two relations.
type Join struct {
	Left, Right ColRef // both fully qualified
}

// AggSpec is one aggregate output: the function and its input column
// (zero ColRef for COUNT(*)).
type AggSpec struct {
	Kind AggKind
	Col  ColRef
	Star bool
}

// Plan is the physical plan: selects pushed to the leaves (paper Fig. 1),
// then equijoins, then aggregation or projection, ordering, and limit.
type Plan struct {
	Scans []Scan
	Joins []Join
	// Project lists plain output columns; empty with no Aggregates means
	// all columns of all relations.
	Project []ColRef
	// Aggregates, when non-empty, switches the output to aggregation;
	// GroupBy (optional) partitions the rows first.
	Aggregates []AggSpec
	GroupBy    *ColRef
	OrderBy    *OrderSpec
	Distinct   bool
	Limit      int // -1 means no limit
}

// String renders a compact plan description.
func (p *Plan) String() string {
	s := "plan:"
	for _, sc := range p.Scans {
		if sc.Selective() {
			s += fmt.Sprintf(" scan(%s.%s in %s)", sc.Relation, sc.Attribute, sc.Range)
		} else {
			s += fmt.Sprintf(" scan(%s)", sc.Relation)
		}
	}
	for _, j := range p.Joins {
		s += fmt.Sprintf(" join(%s=%s)", j.Left, j.Right)
	}
	return s
}

// bounds accumulates lo/hi constraints on one attribute.
type bounds struct {
	lo, hi   int64
	eqString *string // set when the bound comes from string equality
	recheck  bool    // predicates must re-verify fetched tuples (IN, string =)
	preds    []Predicate
}

// empty makes the bounds unsatisfiable for good: predicates only raise lo
// and lower hi, so none can uncross lo = math.MaxInt64 and
// hi = math.MinInt64, and the plan reports ErrEmptySelect.
func (b *bounds) empty() { b.lo, b.hi = math.MaxInt64, math.MinInt64 }

// BuildPlan resolves the query against the global schema and produces a
// plan with selects pushed to the leaves. Per the paper's restriction,
// each relation may carry range predicates on at most one attribute.
func BuildPlan(q *Query, schema *relation.Schema) (*Plan, error) {
	for _, rel := range q.From {
		if _, ok := schema.Relation(rel); !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownRelation, rel)
		}
	}

	resolve := func(c ColRef) (ColRef, relation.Type, error) {
		if c.Relation != "" {
			rs, ok := schema.Relation(c.Relation)
			if !ok || !slices.Contains(q.From, c.Relation) {
				return c, 0, fmt.Errorf("%w: %s", ErrUnknownRelation, c.Relation)
			}
			col, ok := rs.Col(c.Column)
			if !ok {
				return c, 0, fmt.Errorf("%w: %s", ErrUnknownColumn, c)
			}
			return c, col.Type, nil
		}
		var found ColRef
		var typ relation.Type
		matches := 0
		for _, rel := range q.From {
			rs, _ := schema.Relation(rel)
			if col, ok := rs.Col(c.Column); ok {
				found = ColRef{Relation: rel, Column: c.Column}
				typ = col.Type
				matches++
			}
		}
		switch matches {
		case 0:
			return c, 0, fmt.Errorf("%w: %s", ErrUnknownColumn, c)
		case 1:
			return found, typ, nil
		default:
			return c, 0, fmt.Errorf("%w: %s", ErrAmbiguous, c)
		}
	}

	plan := &Plan{}
	sel := make(map[string]map[string]*bounds) // relation -> attribute -> bounds
	residualOnly := make(map[string][]Predicate)

	getBounds := func(col ColRef) *bounds {
		if sel[col.Relation] == nil {
			sel[col.Relation] = make(map[string]*bounds)
		}
		b := sel[col.Relation][col.Column]
		if b == nil {
			b = &bounds{lo: math.MinInt64, hi: math.MaxInt64}
			sel[col.Relation][col.Column] = b
		}
		return b
	}

	addBound := func(col ColRef, typ relation.Type, op CmpOp, lit relation.Value, pred Predicate) error {
		if typ == relation.TString && op != OpEQ {
			return fmt.Errorf("%w: %s on string column %s", ErrUnsupported, op, col)
		}
		b := getBounds(col)
		v := lit.Ordinal()
		switch op {
		case OpLT:
			if v == math.MinInt64 {
				b.empty() // nothing lies below the smallest value
			} else if v-1 < b.hi {
				b.hi = v - 1
			}
		case OpLE:
			if v < b.hi {
				b.hi = v
			}
		case OpGT:
			if v == math.MaxInt64 {
				b.empty() // nothing lies above the largest value
			} else if v+1 > b.lo {
				b.lo = v + 1
			}
		case OpGE:
			if v > b.lo {
				b.lo = v
			}
		case OpEQ:
			if v > b.lo {
				b.lo = v
			}
			if v < b.hi {
				b.hi = v
			}
			if lit.Kind == relation.TString {
				s := lit.Str
				b.eqString = &s
			}
		default:
			return fmt.Errorf("%w: %s with literal", ErrUnsupported, op)
		}
		b.preds = append(b.preds, pred)
		return nil
	}

	for _, pred := range q.Where {
		l, r := pred.Left, pred.Right
		switch {
		case pred.Op == OpIn:
			if !l.IsCol() || len(r.List) == 0 {
				return nil, fmt.Errorf("%w: malformed IN predicate %s", ErrUnsupported, pred)
			}
			lc, typ, err := resolve(l.Col)
			if err != nil {
				return nil, err
			}
			norm := Predicate{Left: Operand{Col: lc}, Op: OpIn, Right: r}
			if typ == relation.TString {
				// String membership cannot push a meaningful range; it
				// filters locally.
				residualOnly[lc.Relation] = append(residualOnly[lc.Relation], norm)
				continue
			}
			lo, hi := r.List[0].Ordinal(), r.List[0].Ordinal()
			for _, v := range r.List[1:] {
				if o := v.Ordinal(); o < lo {
					lo = o
				} else if o > hi {
					hi = o
				}
			}
			b := getBounds(lc)
			if lo > b.lo {
				b.lo = lo
			}
			if hi < b.hi {
				b.hi = hi
			}
			b.recheck = true
			b.preds = append(b.preds, norm)
		case l.IsCol() && r.IsCol():
			lc, _, err := resolve(l.Col)
			if err != nil {
				return nil, err
			}
			rc, _, err := resolve(r.Col)
			if err != nil {
				return nil, err
			}
			if pred.Op != OpEQ {
				return nil, fmt.Errorf("%w: non-equality join %s", ErrUnsupported, pred)
			}
			if lc.Relation == rc.Relation {
				return nil, fmt.Errorf("%w: intra-relation predicate %s", ErrUnsupported, pred)
			}
			plan.Joins = append(plan.Joins, Join{Left: lc, Right: rc})
		case l.IsCol() && !r.IsCol():
			lc, typ, err := resolve(l.Col)
			if err != nil {
				return nil, err
			}
			norm := Predicate{Left: Operand{Col: lc}, Op: pred.Op, Right: r}
			if err := addBound(lc, typ, pred.Op, *r.Lit, norm); err != nil {
				return nil, err
			}
		case !l.IsCol() && r.IsCol():
			rc, typ, err := resolve(r.Col)
			if err != nil {
				return nil, err
			}
			norm := Predicate{Left: Operand{Col: rc}, Op: pred.Op.flip(), Right: l}
			if err := addBound(rc, typ, pred.Op.flip(), *l.Lit, norm); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: literal-only predicate %s", ErrUnsupported, pred)
		}
	}

	for _, rel := range q.From {
		scan := Scan{Relation: rel}
		attrs := sel[rel]
		// The paper's restriction: at most one attribute per relation may
		// carry a (DHT-resolved) selection. Extra *equality* predicates
		// demote to residual filters; extra true ranges are an error.
		var rangedAttrs, eqAttrs []string
		for attr, b := range attrs {
			if b.lo == math.MinInt64 && b.hi == math.MaxInt64 {
				continue
			}
			if b.lo == b.hi || b.eqString != nil {
				eqAttrs = append(eqAttrs, attr)
			} else {
				rangedAttrs = append(rangedAttrs, attr)
			}
		}
		if len(rangedAttrs) > 1 {
			return nil, fmt.Errorf("%w: %s selects on %v", ErrMultiAttribute, rel, rangedAttrs)
		}
		pick := ""
		switch {
		case len(rangedAttrs) == 1:
			pick = rangedAttrs[0]
		case len(eqAttrs) > 0:
			pick = slices.Min(eqAttrs) // deterministic plans
		}
		for attr, b := range attrs {
			if b.lo > b.hi {
				return nil, fmt.Errorf("%w: %s.%s", ErrEmptySelect, rel, attr)
			}
			if attr == pick {
				scan.Attribute = attr
				scan.Range = rangeset.Range{Lo: b.lo, Hi: b.hi}
				if b.eqString != nil || b.recheck {
					// Re-verify exact membership after the hashed fetch:
					// string equality (hash collisions) and IN lists (the
					// pushed range is only the list's convex hull).
					scan.Residual = append(scan.Residual, b.preds...)
				}
			} else {
				scan.Residual = append(scan.Residual, b.preds...)
			}
		}
		scan.Residual = append(scan.Residual, residualOnly[rel]...)
		plan.Scans = append(plan.Scans, scan)
	}

	for _, item := range q.Select {
		if item.Agg == AggNone {
			rc, _, err := resolve(item.Col)
			if err != nil {
				return nil, err
			}
			plan.Project = append(plan.Project, rc)
			continue
		}
		spec := AggSpec{Kind: item.Agg, Star: item.Star}
		if !item.Star {
			rc, typ, err := resolve(item.Col)
			if err != nil {
				return nil, err
			}
			if typ == relation.TString && item.Agg != AggCount && item.Agg != AggMin && item.Agg != AggMax {
				return nil, fmt.Errorf("%w: %s over string column %s", ErrUnsupported, item.Agg, rc)
			}
			spec.Col = rc
		}
		plan.Aggregates = append(plan.Aggregates, spec)
	}
	if q.GroupBy != nil {
		rc, _, err := resolve(*q.GroupBy)
		if err != nil {
			return nil, err
		}
		plan.GroupBy = &rc
	}
	if len(plan.Aggregates) > 0 {
		// Plain columns alongside aggregates must be exactly the GROUP BY
		// column.
		for _, c := range plan.Project {
			if plan.GroupBy == nil || c != *plan.GroupBy {
				return nil, fmt.Errorf("%w: column %s must appear in GROUP BY", ErrUnsupported, c)
			}
		}
	} else if plan.GroupBy != nil {
		return nil, fmt.Errorf("%w: GROUP BY without aggregates", ErrUnsupported)
	}
	if q.Distinct {
		if len(plan.Aggregates) > 0 {
			return nil, fmt.Errorf("%w: DISTINCT with aggregates", ErrUnsupported)
		}
		plan.Distinct = true
	}
	plan.Limit = q.Limit
	if q.OrderBy != nil {
		rc, _, err := resolve(q.OrderBy.Col)
		if err != nil {
			return nil, err
		}
		plan.OrderBy = &OrderSpec{Col: rc, Desc: q.OrderBy.Desc}
	}
	return plan, nil
}
