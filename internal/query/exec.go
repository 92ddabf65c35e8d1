package query

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"p2prange/internal/metrics"
	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/trace"
)

// The Default-registry query.* family: executions counts Execute calls,
// scans counts selective (range-pushed) leaves, fullscans counts leaves
// that fetched a whole relation.
var (
	metExecutions = metrics.Default.Counter("query.executions")
	metScans      = metrics.Default.Counter("query.scans")
	metFullScans  = metrics.Default.Counter("query.fullscans")
)

// Source supplies the tuples for a plan leaf. The P2P system implements it
// by locating a cached partition through the DHT; a base-table source
// reads the relation at its origin peer. Implementations may return tuples
// covering only part of rg (an approximate match); covered reports the
// range actually covered so the executor can compute recall. Half-open
// plan ranges (math.MinInt64 / math.MaxInt64 endpoints) must be clamped by
// the implementation to the attribute's domain. Fetch records its work
// (the DHT lookup, for peer.DataSource) on sp, which is nil when the
// execution is untraced; sources with nothing to record ignore it.
type Source interface {
	Fetch(rel, attribute string, rg rangeset.Range, sp *trace.Span) (data *relation.Relation, covered rangeset.Range, err error)
	// FetchAll returns the whole relation (no pushed-down select).
	FetchAll(rel string) (*relation.Relation, error)
}

// ErrNoSource reports a scan whose relation the source cannot supply.
var ErrNoSource = errors.New("query: relation unavailable from source")

// Result is the output of executing a plan: a header of qualified columns
// and the projected rows, plus per-scan recall accounting so callers can
// report how approximate the answer is.
type Result struct {
	Columns []ColRef
	Rows    []relation.Tuple
	// ScanRecall maps "Relation.attribute" to the fraction of the
	// requested range the fetched partition covered (1 for exact/full).
	ScanRecall map[string]float64
}

// Execute runs the plan against src: fetch each leaf (through the DHT in
// P2P deployments), apply residual filters, evaluate all equijoins with
// hash joins, and project.
func Execute(plan *Plan, schema *relation.Schema, src Source) (*Result, error) {
	return ExecuteTraced(plan, schema, src, nil)
}

// ExecuteTraced is Execute recording one child span per scan leaf (with
// whatever src records inside, the whole DHT lookup for peer.DataSource)
// plus the join and projection stage on sp. A nil sp traces nothing.
func ExecuteTraced(plan *Plan, schema *relation.Schema, src Source, sp *trace.Span) (*Result, error) {
	metExecutions.Inc()
	res := &Result{ScanRecall: make(map[string]float64)}

	// Leaves: fetch and filter.
	tables := make(map[string]*relation.Relation, len(plan.Scans))
	for _, scan := range plan.Scans {
		var data *relation.Relation
		var err error
		if scan.Selective() {
			metScans.Inc()
			var ss *trace.Span
			if sp.On() {
				ss = sp.Child(fmt.Sprintf("scan %s.%s %s", scan.Relation, scan.Attribute, scan.Range))
			}
			var covered rangeset.Range
			data, covered, err = src.Fetch(scan.Relation, scan.Attribute, scan.Range, ss)
			ss.End()
			if err != nil {
				return nil, fmt.Errorf("query: fetch %s.%s %s: %w", scan.Relation, scan.Attribute, scan.Range, err)
			}
			key := scan.Relation + "." + scan.Attribute
			if covered.Valid() {
				res.ScanRecall[key] = scan.Range.Recall(covered)
			} else {
				res.ScanRecall[key] = 0
			}
			// The fetched partition may be broader than requested; keep
			// only tuples inside the requested range.
			data, err = data.SelectRange(scan.Attribute, scan.Range)
			if err != nil {
				return nil, err
			}
		} else {
			metFullScans.Inc()
			data, err = src.FetchAll(scan.Relation)
			if err != nil {
				return nil, fmt.Errorf("query: fetch %s: %w", scan.Relation, err)
			}
			if sp.On() {
				sp.Eventf("fullscan", "%s (%d tuple(s))", scan.Relation, len(data.Tuples))
			}
		}
		if len(scan.Residual) > 0 {
			data, err = applyResidual(data, scan.Residual)
			if err != nil {
				return nil, err
			}
		}
		tables[scan.Relation] = data
	}

	// The join/projection stage runs at the querying peer; one child span
	// covers it all.
	js := sp.Child("join+project")
	defer js.End()

	// Joins: left-deep over the FROM order. slots maps each relation to
	// the row slot that binds it; a relation named twice in FROM resolves
	// to its latest slot.
	first := plan.Scans[0].Relation
	// One-slot rows are windows of the first relation's tuple slice itself:
	// rows are only read, so nothing is copied.
	rows := window(tables[first].Tuples, 1)
	slots := map[string]int{first: 0}

	remaining := append([]Join(nil), plan.Joins...)
	for i := 1; i < len(plan.Scans); i++ {
		rel := plan.Scans[i].Relation
		table := tables[rel]
		// Collect join predicates connecting rel to the joined set, as
		// probe cells of the joined rows and build columns of table.
		var probe []cell
		var build []int
		var rest []Join
		for _, j := range remaining {
			l, r := j.Left, j.Right
			if l.Relation == rel && r.Relation != rel {
				l, r = r, l // normalize: Left joined, Right new
			}
			if _, joined := slots[l.Relation]; !joined || r.Relation != rel {
				rest = append(rest, j)
				continue
			}
			pc, err := locate(schema, slots, l)
			if err != nil {
				return nil, err
			}
			bc, err := colIndex(schema, r)
			if err != nil {
				return nil, err
			}
			probe = append(probe, pc)
			build = append(build, bc)
		}
		remaining = rest
		rows = hashJoin(rows, i, table, probe, build)
		slots[rel] = i
	}
	if len(remaining) > 0 {
		// BuildPlan admits only predicates between two FROM relations,
		// and the loop consumes each when the later of the two joins.
		return nil, fmt.Errorf("query: join predicate %s = %s left unapplied", remaining[0].Left, remaining[0].Right)
	}

	// Aggregation replaces projection when requested.
	if len(plan.Aggregates) > 0 {
		if err := aggregate(plan, schema, slots, rows, res); err != nil {
			return nil, err
		}
		if plan.OrderBy != nil {
			if plan.GroupBy == nil || plan.OrderBy.Col != *plan.GroupBy {
				return nil, fmt.Errorf("%w: ORDER BY with aggregates is only supported on the GROUP BY column", ErrUnsupported)
			}
			if plan.OrderBy.Desc { // groups are emitted ascending
				for i, j := 0, len(res.Rows)-1; i < j; i, j = i+1, j-1 {
					res.Rows[i], res.Rows[j] = res.Rows[j], res.Rows[i]
				}
			}
		}
		if plan.Limit >= 0 && len(res.Rows) > plan.Limit {
			res.Rows = res.Rows[:plan.Limit]
		}
		return res, nil
	}

	// Projection: every output row is a window of one slab of cells.
	cols := plan.Project
	if len(cols) == 0 {
		for _, scan := range plan.Scans {
			rs, _ := schema.Relation(scan.Relation)
			for _, c := range rs.Columns {
				cols = append(cols, ColRef{Relation: scan.Relation, Column: c.Name})
			}
		}
	}
	res.Columns = cols
	at := make([]cell, len(cols))
	for i, c := range cols {
		var err error
		if at[i], err = locate(schema, slots, c); err != nil {
			return nil, err
		}
	}
	if len(rows) > 0 { // an empty result keeps nil Rows
		w := len(cols)
		cells := make([]relation.Value, len(rows)*w)
		res.Rows = make([]relation.Tuple, len(rows))
		for k, r := range rows {
			out := cells[k*w : (k+1)*w : (k+1)*w]
			for i, c := range at {
				out[i] = r[c.slot][c.col]
			}
			res.Rows[k] = out
		}
	}

	if plan.Distinct {
		keep := distinct(res.Rows)
		outRows := res.Rows[:0]
		outBindings := rows[:0]
		for _, i := range keep {
			outRows = append(outRows, res.Rows[i])
			outBindings = append(outBindings, rows[i])
		}
		res.Rows = outRows
		rows = outBindings
	}

	if plan.OrderBy != nil {
		if err := sortRows(res, plan.OrderBy, rows, schema, slots); err != nil {
			return nil, err
		}
	}
	if plan.Limit >= 0 && len(res.Rows) > plan.Limit {
		res.Rows = res.Rows[:plan.Limit]
	}
	return res, nil
}

// sortRows orders the projected rows by the ORDER BY column. When the
// column is part of the projection the projected cells sort directly;
// otherwise the pre-projection bindings supply the key.
func sortRows(res *Result, spec *OrderSpec, bindings []row, schema *relation.Schema, slots map[string]int) error {
	keyAt := -1
	for i, c := range res.Columns {
		if c == spec.Col {
			keyAt = i
			break
		}
	}
	keys := make([]relation.Value, len(res.Rows))
	if keyAt >= 0 {
		for i, r := range res.Rows {
			keys[i] = r[keyAt]
		}
	} else {
		c, err := locate(schema, slots, spec.Col)
		if err != nil {
			return err
		}
		for i, b := range bindings {
			keys[i] = b[c.slot][c.col]
		}
	}
	order := make([]int, len(res.Rows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		less := valueLess(keys[order[a]], keys[order[b]])
		if spec.Desc {
			return valueLess(keys[order[b]], keys[order[a]])
		}
		return less
	})
	sorted := make([]relation.Tuple, len(res.Rows))
	for i, o := range order {
		sorted[i] = res.Rows[o]
	}
	res.Rows = sorted
	return nil
}

// valueLess orders values: strings lexically, everything else by ordinal.
func valueLess(a, b relation.Value) bool {
	if a.Kind == relation.TString && b.Kind == relation.TString {
		return a.Str < b.Str
	}
	return a.Ordinal() < b.Ordinal()
}

// row binds each joined relation to one of its tuples by the relation's
// position in plan.Scans: after join stage i a row has slots 0..i. The
// rows of one stage are windows of one shared slab.
type row = []relation.Tuple

// cell locates a column in joined rows: the slot of its relation and its
// index among the relation's columns.
type cell struct{ slot, col int }

// locate resolves c against the relations bound so far.
func locate(schema *relation.Schema, slots map[string]int, c ColRef) (cell, error) {
	slot, bound := slots[c.Relation]
	if !bound {
		return cell{}, fmt.Errorf("%w: %s", ErrUnknownColumn, c)
	}
	col, err := colIndex(schema, c)
	return cell{slot, col}, err
}

// colIndex resolves c to its position among its relation's columns.
func colIndex(schema *relation.Schema, c ColRef) (int, error) {
	if rs, ok := schema.Relation(c.Relation); ok {
		if j, ok := rs.ColIndex(c.Column); ok {
			return j, nil
		}
	}
	return 0, fmt.Errorf("%w: %s", ErrUnknownColumn, c)
}

// hashJoin joins the rows of stage i-1 with table, the relation of slot
// i, on probe[k] = build[k] for every k: cells of the joined rows against
// columns of table. With no predicates it degrades to a cross product.
// Output is row-major over rows, each row's matches in table order.
func hashJoin(rows []row, i int, table *relation.Relation, probe []cell, build []int) []row {
	if table == nil {
		return nil
	}
	// Size the slab for one match per row; a cross product is exact.
	n := len(rows)
	if len(probe) == 0 {
		n *= len(table.Tuples)
	}
	slab := make([]relation.Tuple, 0, n*(i+1))
	emit := func(r row, t relation.Tuple) {
		slab = append(slab, r...)
		slab = append(slab, t)
	}
	if len(probe) == 0 {
		for _, r := range rows {
			for _, t := range table.Tuples {
				emit(r, t)
			}
		}
		return window(slab, i+1)
	}
	ix := newJoinIndex(table.Tuples, build)
	var buf []byte
	for _, r := range rows {
		var j int32
		if ix.one != nil {
			j = ix.one[r[probe[0].slot][probe[0].col]]
		} else {
			buf = buf[:0]
			for _, c := range probe {
				buf = appendKey(buf, r[c.slot][c.col])
			}
			j = ix.many[string(buf)]
		}
		for ; j != 0; j = ix.next[j-1] {
			emit(r, table.Tuples[j-1])
		}
	}
	return window(slab, i+1)
}

// window cuts slab into rows of w slots each.
func window(slab []relation.Tuple, w int) []row {
	rows := make([]row, len(slab)/w)
	for k := range rows {
		rows[k] = slab[k*w : (k+1)*w : (k+1)*w]
	}
	return rows
}

// joinIndex chains a build table's tuples by join key. The key's map
// entry is 1 + the index of its first tuple, and next[t] 1 + the index
// of the tuple after t with the same key (0 ends the chain), so walking a
// chain visits the key's tuples in table order. A one-column key is the
// relation.Value itself (one); a wider key is its appendKey encoding
// (many).
type joinIndex struct {
	one  map[relation.Value]int32
	many map[string]int32
	next []int32
}

func newJoinIndex(tuples []relation.Tuple, cols []int) joinIndex {
	ix := joinIndex{next: make([]int32, len(tuples))}
	if len(cols) == 1 {
		ix.one = make(map[relation.Value]int32, len(tuples))
	} else {
		ix.many = make(map[string]int32, len(tuples))
	}
	// Walk backwards, pushing each tuple onto the front of its chain.
	var buf []byte
	for t := len(tuples) - 1; t >= 0; t-- {
		if ix.one != nil {
			v := tuples[t][cols[0]]
			ix.next[t] = ix.one[v]
			ix.one[v] = int32(t + 1)
			continue
		}
		buf = buf[:0]
		for _, c := range cols {
			buf = appendKey(buf, tuples[t][c])
		}
		ix.next[t] = ix.many[string(buf)]
		ix.many[string(buf)] = int32(t + 1)
	}
	return ix
}

// appendKey appends v's key encoding to buf: the kind byte, the 8-byte
// integer, the string's uvarint length, then its bytes. Every field has a
// known or stated length, so concatenated keys are equal exactly when
// their values are equal in turn (relation.Value.Equal): no string
// content can forge a column boundary.
func appendKey(buf []byte, v relation.Value) []byte {
	buf = append(buf, byte(v.Kind))
	buf = binary.BigEndian.AppendUint64(buf, uint64(v.Int))
	buf = binary.AppendUvarint(buf, uint64(len(v.Str)))
	return append(buf, v.Str...)
}

// distinct returns the indexes of the first occurrence of each distinct
// row, in order.
func distinct(rows []relation.Tuple) []int {
	var keep []int
	one := make(map[relation.Value]struct{})
	many := make(map[string]struct{})
	var buf []byte
	for i, r := range rows {
		if len(r) == 1 {
			if _, dup := one[r[0]]; dup {
				continue
			}
			one[r[0]] = struct{}{}
		} else {
			buf = buf[:0]
			for _, v := range r {
				buf = appendKey(buf, v)
			}
			if _, dup := many[string(buf)]; dup {
				continue
			}
			many[string(buf)] = struct{}{}
		}
		keep = append(keep, i)
	}
	return keep
}

// applyResidual keeps tuples satisfying every predicate (all of the form
// col cmp literal with col belonging to the relation).
func applyResidual(data *relation.Relation, preds []Predicate) (*relation.Relation, error) {
	out := relation.NewRelation(data.Schema)
	idx := make([]int, len(preds))
	for i, p := range preds {
		j, ok := data.Schema.ColIndex(p.Left.Col.Column)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownColumn, p.Left.Col)
		}
		idx[i] = j
	}
	for _, t := range data.Tuples {
		keep := true
		for i, p := range preds {
			if !evalCmp(t[idx[i]], p.Op, p.Right) {
				keep = false
				break
			}
		}
		if keep {
			out.Tuples = append(out.Tuples, t)
		}
	}
	return out, nil
}

func evalCmp(v relation.Value, op CmpOp, right Operand) bool {
	if op == OpIn {
		return inList(v, right.List)
	}
	if right.Lit == nil {
		return false
	}
	lit := *right.Lit
	if v.Kind == relation.TString || lit.Kind == relation.TString {
		eq := v.Kind == lit.Kind && v.Str == lit.Str
		switch op {
		case OpEQ:
			return eq
		case OpNE:
			return !eq
		default:
			return false
		}
	}
	a, b := v.Ordinal(), lit.Ordinal()
	switch op {
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	case OpGT:
		return a > b
	case OpGE:
		return a >= b
	case OpEQ:
		return a == b
	case OpNE:
		return a != b
	default:
		return false
	}
}

// inList tests IN membership: strings compare exactly, everything else by
// ordinal (so integer literals match date columns by day number).
func inList(v relation.Value, list []relation.Value) bool {
	for _, lv := range list {
		if v.Kind == relation.TString || lv.Kind == relation.TString {
			if v.Kind == lv.Kind && v.Str == lv.Str {
				return true
			}
		} else if v.Ordinal() == lv.Ordinal() {
			return true
		}
	}
	return false
}
