package query

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"p2prange/internal/relation"
)

// Parse parses a restricted SQL SELECT statement:
//
//	SELECT col[, col...] | *
//	FROM rel[, rel...]
//	[WHERE pred AND pred ...]
//
// where each pred is "operand cmp operand" or "col BETWEEN lit AND lit",
// operands are (qualified) column names or literals (integers, quoted
// strings, dates as 'YYYY-MM-DD' or the paper's 01-01-2000 style), and
// cmp is <, <=, =, <>, >=, >.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, errAt(p.cur().pos, "unexpected %s after query", p.cur())
	}
	return q, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return errAt(t.pos, "expected %s, got %s", kw, t)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	q := &Query{}
	if t := p.cur(); t.kind == tokKeyword && t.text == "DISTINCT" {
		p.next()
		q.Distinct = true
	}
	if p.cur().kind == tokStar {
		p.next()
	} else {
		for {
			item, err := p.parseSelectItem()
			if err != nil {
				return nil, err
			}
			q.Select = append(q.Select, item)
			if p.cur().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		t := p.next()
		if t.kind != tokIdent {
			return nil, errAt(t.pos, "expected relation name, got %s", t)
		}
		q.From = append(q.From, t.text)
		if p.cur().kind != tokComma {
			break
		}
		p.next()
	}
	if p.cur().kind == tokKeyword && p.cur().text == "WHERE" {
		p.next()
		for {
			preds, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, preds...)
			if p.cur().kind == tokKeyword && p.cur().text == "AND" {
				p.next()
				continue
			}
			break
		}
	}
	if p.cur().kind == tokKeyword && p.cur().text == "GROUP" {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		q.GroupBy = &col
	}
	q.Limit = -1
	if p.cur().kind == tokKeyword && p.cur().text == "ORDER" {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		q.OrderBy = &OrderSpec{Col: col}
		if t := p.cur(); t.kind == tokKeyword && (t.text == "ASC" || t.text == "DESC") {
			p.next()
			q.OrderBy.Desc = t.text == "DESC"
		}
	}
	if p.cur().kind == tokKeyword && p.cur().text == "LIMIT" {
		p.next()
		nt := p.next()
		if nt.kind != tokNumber {
			return nil, errAt(nt.pos, "expected row count after LIMIT, got %s", nt)
		}
		n, err := strconv.Atoi(nt.text)
		if err != nil || n < 0 {
			return nil, errAt(nt.pos, "bad LIMIT %q", nt.text)
		}
		q.Limit = n
	}
	return q, nil
}

// aggNames maps upper-cased function names to aggregate kinds.
var aggNames = map[string]AggKind{
	"COUNT": AggCount, "SUM": AggSum, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

// parseSelectItem parses a plain column or AGG(col) / COUNT(*).
func (p *parser) parseSelectItem() (SelectItem, error) {
	t := p.cur()
	if t.kind == tokIdent && p.toks[p.i+1].kind == tokLParen {
		kind, ok := aggNames[strings.ToUpper(t.text)]
		if !ok {
			return SelectItem{}, errAt(t.pos, "unknown function %q (want COUNT, SUM, AVG, MIN, MAX)", t.text)
		}
		p.next() // function name
		p.next() // (
		item := SelectItem{Agg: kind}
		if p.cur().kind == tokStar {
			if kind != AggCount {
				return SelectItem{}, errAt(p.cur().pos, "%s(*) is not supported; only COUNT(*)", kind)
			}
			item.Star = true
			p.next()
		} else {
			col, err := p.parseColRef()
			if err != nil {
				return SelectItem{}, err
			}
			item.Col = col
		}
		if tk := p.next(); tk.kind != tokRParen {
			return SelectItem{}, errAt(tk.pos, "expected ), got %s", tk)
		}
		return item, nil
	}
	col, err := p.parseColRef()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: col}, nil
}

func (p *parser) parseColRef() (ColRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		return ColRef{}, errAt(t.pos, "expected column name, got %s", t)
	}
	c := ColRef{Column: t.text}
	if p.cur().kind == tokDot {
		p.next()
		t2 := p.next()
		if t2.kind != tokIdent {
			return ColRef{}, errAt(t2.pos, "expected column after %q., got %s", t.text, t2)
		}
		c = ColRef{Relation: t.text, Column: t2.text}
	}
	return c, nil
}

// parsePredicate parses one comparison, or a BETWEEN which expands to two
// conjuncts. It also folds the paper's chained form "30 < age < 50" into
// two conjuncts.
func (p *parser) parsePredicate() ([]Predicate, error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if left.IsCol() && p.cur().kind == tokKeyword && p.cur().text == "IN" {
		p.next()
		if tk := p.next(); tk.kind != tokLParen {
			return nil, errAt(tk.pos, "expected ( after IN, got %s", tk)
		}
		var list []relation.Value
		for {
			op, err := p.parseOperand()
			if err != nil {
				return nil, err
			}
			if op.Lit == nil {
				return nil, errAt(p.cur().pos, "IN list elements must be literals")
			}
			list = append(list, *op.Lit)
			if p.cur().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		if tk := p.next(); tk.kind != tokRParen {
			return nil, errAt(tk.pos, "expected ) closing IN list, got %s", tk)
		}
		return []Predicate{{Left: left, Op: OpIn, Right: Operand{List: list}}}, nil
	}
	if left.IsCol() && p.cur().kind == tokKeyword && p.cur().text == "BETWEEN" {
		p.next()
		lo, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		return []Predicate{
			{Left: left, Op: OpGE, Right: lo},
			{Left: left, Op: OpLE, Right: hi},
		}, nil
	}
	op, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	preds := []Predicate{{Left: left, Op: op, Right: right}}
	// Chained comparison: a < b < c.
	if isCmpTok(p.cur().kind) && right.IsCol() {
		op2, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		third, err := p.parseOperand()
		if err != nil {
			return nil, err
		}
		preds = append(preds, Predicate{Left: right, Op: op2, Right: third})
	}
	return preds, nil
}

func isCmpTok(k tokenKind) bool {
	switch k {
	case tokLT, tokLE, tokGT, tokGE, tokEQ, tokNE:
		return true
	}
	return false
}

func (p *parser) parseCmp() (CmpOp, error) {
	t := p.next()
	switch t.kind {
	case tokLT:
		return OpLT, nil
	case tokLE:
		return OpLE, nil
	case tokGT:
		return OpGT, nil
	case tokGE:
		return OpGE, nil
	case tokEQ:
		return OpEQ, nil
	case tokNE:
		return OpNE, nil
	default:
		return 0, errAt(t.pos, "expected comparison operator, got %s", t)
	}
}

func (p *parser) parseOperand() (Operand, error) {
	t := p.cur()
	switch t.kind {
	case tokIdent:
		c, err := p.parseColRef()
		if err != nil {
			return Operand{}, err
		}
		return Operand{Col: c}, nil
	case tokNumber:
		p.next()
		v, err := parseNumberOrDate(t.text)
		if err != nil {
			return Operand{}, errAt(t.pos, "%v", err)
		}
		return Operand{Lit: &v}, nil
	case tokString:
		p.next()
		if d, ok := parseDateString(t.text); ok {
			return Operand{Lit: &d}, nil
		}
		v := relation.StrVal(t.text)
		return Operand{Lit: &v}, nil
	default:
		return Operand{}, errAt(t.pos, "expected column or literal, got %s", t)
	}
}

// parseNumberOrDate interprets a number token: plain integers, and the
// paper's inline date style 01-01-2000 (MM-DD-YYYY) or 2000-01-31
// (YYYY-MM-DD).
func parseNumberOrDate(text string) (relation.Value, error) {
	if strings.Contains(text[1:], "-") { // [1:] so a leading minus is fine
		if d, ok := parseDateString(text); ok {
			return d, nil
		}
		return relation.Value{}, fmt.Errorf("bad date literal %q", text)
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return relation.Value{}, fmt.Errorf("bad integer literal %q", text)
	}
	return relation.IntVal(n), nil
}

// parseDateString accepts real calendar dates as YYYY-MM-DD and
// MM-DD-YYYY.
func parseDateString(s string) (relation.Value, bool) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return relation.Value{}, false
	}
	nums := make([]int, 3)
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return relation.Value{}, false
		}
		nums[i] = n
	}
	var y, m, d int
	switch {
	case len(parts[0]) == 4: // YYYY-MM-DD
		y, m, d = nums[0], nums[1], nums[2]
	case len(parts[2]) == 4: // MM-DD-YYYY
		m, d, y = nums[0], nums[1], nums[2]
	default:
		return relation.Value{}, false
	}
	if !relation.ValidDate(y, time.Month(m), d) {
		return relation.Value{}, false
	}
	return relation.DateVal(y, time.Month(m), d), true
}
