package query

import (
	"fmt"
	"sort"

	"p2prange/internal/relation"
)

// aggregate computes the plan's aggregate outputs over the joined rows,
// optionally grouped. Output columns are the GROUP BY column (if any)
// followed by one synthesized column per aggregate. AVG over integer
// ordinals truncates toward zero (the type system has no float column).
func aggregate(plan *Plan, schema *relation.Schema, slots map[string]int, rows []row, res *Result) error {
	var groupAt cell
	if plan.GroupBy != nil {
		var err error
		groupAt, err = locate(schema, slots, *plan.GroupBy)
		if err != nil {
			return err
		}
	}
	inputs := make([]cell, len(plan.Aggregates))
	for i, spec := range plan.Aggregates {
		if spec.Star {
			continue
		}
		var err error
		inputs[i], err = locate(schema, slots, spec.Col)
		if err != nil {
			return err
		}
	}

	// Accumulators per group, keyed by the group value (the zero Value
	// without GROUP BY).
	type acc struct {
		groupVal relation.Value
		count    []int64
		sum      []int64
		min, max []relation.Value
		seen     []bool
	}
	newAcc := func(gv relation.Value) *acc {
		n := len(plan.Aggregates)
		return &acc{
			groupVal: gv,
			count:    make([]int64, n),
			sum:      make([]int64, n),
			min:      make([]relation.Value, n),
			max:      make([]relation.Value, n),
			seen:     make([]bool, n),
		}
	}
	groups := make(map[relation.Value]*acc)
	var order []*acc
	for _, r := range rows {
		var gv relation.Value
		if plan.GroupBy != nil {
			gv = r[groupAt.slot][groupAt.col]
		}
		a, ok := groups[gv]
		if !ok {
			a = newAcc(gv)
			groups[gv] = a
			order = append(order, a)
		}
		for i, spec := range plan.Aggregates {
			if spec.Star {
				a.count[i]++
				continue
			}
			v := r[inputs[i].slot][inputs[i].col]
			a.count[i]++
			a.sum[i] += v.Ordinal()
			if !a.seen[i] || valueLess(v, a.min[i]) {
				a.min[i] = v
			}
			if !a.seen[i] || valueLess(a.max[i], v) {
				a.max[i] = v
			}
			a.seen[i] = true
		}
	}
	// A global aggregate over zero rows still yields one row of zeros.
	if plan.GroupBy == nil && len(groups) == 0 {
		order = append(order, newAcc(relation.Value{}))
	}

	// Output schema: group column first (if grouped), then aggregates.
	res.Columns = res.Columns[:0]
	if plan.GroupBy != nil {
		res.Columns = append(res.Columns, *plan.GroupBy)
	}
	for _, spec := range plan.Aggregates {
		name := spec.Kind.String() + "(*)"
		if !spec.Star {
			name = fmt.Sprintf("%s(%s)", spec.Kind, spec.Col)
		}
		res.Columns = append(res.Columns, ColRef{Column: name})
	}

	// Deterministic output: sort groups by key value.
	if plan.GroupBy != nil {
		sort.SliceStable(order, func(i, j int) bool {
			return valueLess(order[i].groupVal, order[j].groupVal)
		})
	}
	res.Rows = res.Rows[:0]
	for _, a := range order {
		var out relation.Tuple
		if plan.GroupBy != nil {
			out = append(out, a.groupVal)
		}
		for i, spec := range plan.Aggregates {
			out = append(out, aggValue(spec, a.count[i], a.sum[i], a.min[i], a.max[i], a.seen[i]))
		}
		res.Rows = append(res.Rows, out)
	}
	return nil
}

// aggValue materializes one aggregate cell.
func aggValue(spec AggSpec, count, sum int64, minV, maxV relation.Value, seen bool) relation.Value {
	switch spec.Kind {
	case AggCount:
		return relation.IntVal(count)
	case AggSum:
		return relation.IntVal(sum)
	case AggAvg:
		if count == 0 {
			return relation.IntVal(0)
		}
		return relation.IntVal(sum / count)
	case AggMin:
		if !seen {
			return relation.Value{}
		}
		return minV
	case AggMax:
		if !seen {
			return relation.Value{}
		}
		return maxV
	default:
		return relation.Value{}
	}
}
