package query

import (
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

// SigStatsProvider is implemented by sources whose range hashing runs
// through the signature pipeline (peer.DataSource). Execute uses it to
// attribute signature-cache activity to the query being executed.
type SigStatsProvider interface {
	// SigStats returns the source's cumulative signature-pipeline
	// counters.
	SigStats() metrics.SigSnapshot
}

// Result is the output of executing a plan: a header of qualified columns
// and the projected rows, plus per-scan recall accounting so callers can
// report how approximate the answer is.
type Result struct {
	Columns []ColRef
	Rows    []relation.Tuple
	// ScanRecall maps "Relation.attribute" to the fraction of the
	// requested range the fetched partition covered (1 for exact/full).
	ScanRecall map[string]float64
	// SigCache, when the source hashes through the signature pipeline,
	// holds the pipeline counters attributable to this execution: how
	// often the leaves' range hashing hit the signature cache, extended
	// a cached signature, or paid a full rehash.
	SigCache *metrics.SigSnapshot
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

	// Signature-pipeline accounting: snapshot before the leaves fetch,
	// diff after, so the result reports this query's own hashing reuse.
	sigSrc, _ := src.(SigStatsProvider)
	var sigBefore metrics.SigSnapshot
	if sigSrc != nil {
		sigBefore = sigSrc.SigStats()
	}
	defer func() {
		if sigSrc != nil {
			delta := sigSrc.SigStats().Sub(sigBefore)
			res.SigCache = &delta
		}
	}()

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

	// Joins: left-deep over the FROM order, binding rows per relation.
	var rows []row
	first := plan.Scans[0].Relation
	for _, t := range tables[first].Tuples {
		rows = append(rows, row{first: t})
	}
	joined := map[string]bool{first: true}

	remaining := append([]Join(nil), plan.Joins...)
	for i := 1; i < len(plan.Scans); i++ {
		rel := plan.Scans[i].Relation
		// Collect join predicates connecting rel to the joined set.
		var preds []Join
		var rest []Join
		for _, j := range remaining {
			l, r := j.Left, j.Right
			if r.Relation == rel && joined[l.Relation] {
				preds = append(preds, j)
			} else if l.Relation == rel && joined[r.Relation] {
				preds = append(preds, Join{Left: r, Right: l}) // normalize: Left joined, Right new
			} else {
				rest = append(rest, j)
			}
		}
		remaining = rest
		rows = hashJoin(rows, tables[rel], rel, preds, schema)
		joined[rel] = true
	}
	if len(remaining) > 0 {
		// Predicates between relations joined earlier (cycles): filter.
		rows = filterJoins(rows, remaining, schema)
	}

	// Aggregation replaces projection when requested.
	if len(plan.Aggregates) > 0 {
		if err := aggregate(plan, schema, rows, res); err != nil {
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

	// Projection.
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
	idx := make([]int, len(cols))
	for i, c := range cols {
		rs, _ := schema.Relation(c.Relation)
		j, ok := rs.ColIndex(c.Column)
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownColumn, c)
		}
		idx[i] = j
	}
	for _, r := range rows {
		out := make(relation.Tuple, len(cols))
		for i, c := range cols {
			out[i] = r[c.Relation][idx[i]]
		}
		res.Rows = append(res.Rows, out)
	}

	if plan.Distinct {
		seen := make(map[string]bool, len(res.Rows))
		outRows := res.Rows[:0]
		outBindings := rows[:0]
		for i, r := range res.Rows {
			key := joinKeyOf(r, allIdx(len(cols)))
			if seen[key] {
				continue
			}
			seen[key] = true
			outRows = append(outRows, r)
			outBindings = append(outBindings, rows[i])
		}
		res.Rows = outRows
		rows = outBindings
	}

	if plan.OrderBy != nil {
		if err := sortRows(res, plan.OrderBy, rows, schema); err != nil {
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
func sortRows(res *Result, spec *OrderSpec, bindings []row, schema *relation.Schema) error {
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
		rs, ok := schema.Relation(spec.Col.Relation)
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownColumn, spec.Col)
		}
		j, ok := rs.ColIndex(spec.Col.Column)
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknownColumn, spec.Col)
		}
		for i, b := range bindings {
			keys[i] = b[spec.Col.Relation][j]
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

// row binds each joined relation name to one of its tuples.
type row = map[string]relation.Tuple

// hashJoin joins the bound rows with table rel on preds (all of the form
// joinedCol = rel.col). With no predicates it degrades to a cross product.
func hashJoin(rows []row, table *relation.Relation, rel string, preds []Join, schema *relation.Schema) []row {
	if table == nil {
		return nil
	}
	if len(preds) == 0 {
		var out []row
		for _, r := range rows {
			for _, t := range table.Tuples {
				nr := cloneRow(r)
				nr[rel] = t
				out = append(out, nr)
			}
		}
		return out
	}
	// Build side: hash the new table on the joined key columns.
	rs := table.Schema
	keyIdx := make([]int, len(preds))
	for i, p := range preds {
		j, _ := rs.ColIndex(p.Right.Column)
		keyIdx[i] = j
	}
	build := make(map[string][]relation.Tuple)
	for _, t := range table.Tuples {
		build[joinKeyOf(t, keyIdx)] = append(build[joinKeyOf(t, keyIdx)], t)
	}
	// Probe side: key from the already-joined rows.
	probeIdx := make([]struct {
		rel string
		col int
	}, len(preds))
	for i, p := range preds {
		lrs, _ := schema.Relation(p.Left.Relation)
		j, _ := lrs.ColIndex(p.Left.Column)
		probeIdx[i] = struct {
			rel string
			col int
		}{p.Left.Relation, j}
	}
	var out []row
	for _, r := range rows {
		key := ""
		for _, pi := range probeIdx {
			key += valueKey(r[pi.rel][pi.col])
		}
		for _, t := range build[key] {
			nr := cloneRow(r)
			nr[rel] = t
			out = append(out, nr)
		}
	}
	return out
}

func filterJoins(rows []row, preds []Join, schema *relation.Schema) []row {
	var out []row
	for _, r := range rows {
		ok := true
		for _, p := range preds {
			lrs, _ := schema.Relation(p.Left.Relation)
			rrs, _ := schema.Relation(p.Right.Relation)
			li, _ := lrs.ColIndex(p.Left.Column)
			ri, _ := rrs.ColIndex(p.Right.Column)
			if !r[p.Left.Relation][li].Equal(r[p.Right.Relation][ri]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}

func cloneRow(r row) row {
	nr := make(row, len(r)+1)
	for k, v := range r {
		nr[k] = v
	}
	return nr
}

func joinKeyOf(t relation.Tuple, idx []int) string {
	key := ""
	for _, i := range idx {
		key += valueKey(t[i])
	}
	return key
}

func valueKey(v relation.Value) string {
	return fmt.Sprintf("%d|%d|%s;", v.Kind, v.Int, v.Str)
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

// allIdx returns [0, 1, ..., n-1] for whole-tuple keys.
func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
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
