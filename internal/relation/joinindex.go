package relation

import (
	"encoding/binary"
	"slices"
)

// maxJoinIndexes bounds how many join indexes one relation keeps: a
// relation joined on more column lists than this drops its oldest.
const maxJoinIndexes = 4

// JoinIndex chains a relation's tuples by the key of some of its columns,
// the build side of a hash join. The key's map entry is 1 + the position
// of its first tuple, and next[t] 1 + the position of the tuple after t
// with the same key (0 ends the chain), so walking a chain visits the
// key's tuples in table order. A one-column key is the Value itself
// (one); a wider key is its AppendKey encoding (many). An index is
// immutable once built and safe for concurrent use.
type JoinIndex struct {
	cols []int
	one  map[Value]int32
	many map[string]int32
	next []int32
	// n and first identify the tuple slice the index was built over, so
	// a relation whose Tuples were replaced never reads a stale index.
	n     int
	first *Tuple
}

// JoinIndex returns the hash-join index of r over the columns cols,
// building it on first use and keeping it with the relation, as
// BuildIndex keeps sorted indexes: every later join on the same columns
// reuses it until Insert or SortBy drops it. Concurrent calls are safe —
// base relations serve many queries at once — and build each index once
// however many callers race for it; like every read of Tuples, they must
// not overlap Insert or SortBy.
func (r *Relation) JoinIndex(cols []int) *JoinIndex {
	if ix := r.cachedJoin(cols); ix != nil {
		return ix
	}
	r.joinMu.Lock()
	defer r.joinMu.Unlock()
	if ix := r.cachedJoin(cols); ix != nil {
		return ix
	}
	ix := newJoinIndex(r.Tuples, cols)
	var memo []*JoinIndex
	if old := r.joins.Load(); old != nil {
		for _, o := range *old {
			if o.over(r.Tuples) && !slices.Equal(o.cols, cols) {
				memo = append(memo, o)
			}
		}
	}
	if len(memo) == maxJoinIndexes {
		memo = memo[1:]
	}
	memo = append(memo, ix)
	r.joins.Store(&memo)
	return ix
}

// cachedJoin returns the kept index over cols, if it is current.
func (r *Relation) cachedJoin(cols []int) *JoinIndex {
	if memo := r.joins.Load(); memo != nil {
		for _, ix := range *memo {
			if slices.Equal(ix.cols, cols) && ix.over(r.Tuples) {
				return ix
			}
		}
	}
	return nil
}

// dropJoins forgets every join index; tuples were added or moved.
func (r *Relation) dropJoins() { r.joins.Store(nil) }

// over reports whether the index was built over tuples.
func (ix *JoinIndex) over(tuples []Tuple) bool {
	return ix.n == len(tuples) && (ix.n == 0 || ix.first == &tuples[0])
}

func newJoinIndex(tuples []Tuple, cols []int) *JoinIndex {
	ix := &JoinIndex{cols: slices.Clone(cols), next: make([]int32, len(tuples)), n: len(tuples)}
	if len(tuples) > 0 {
		ix.first = &tuples[0]
	}
	if len(cols) == 1 {
		ix.one = make(map[Value]int32, len(tuples))
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
			buf = AppendKey(buf, tuples[t][c])
		}
		ix.next[t] = ix.many[string(buf)]
		ix.many[string(buf)] = int32(t + 1)
	}
	return ix
}

// Head returns the position of the first tuple whose one-column key is
// v, or -1 when none has it.
func (ix *JoinIndex) Head(v Value) int { return int(ix.one[v]) - 1 }

// HeadKey is Head for a multi-column key: the AppendKey encodings of its
// values, concatenated in the index's column order.
func (ix *JoinIndex) HeadKey(key []byte) int { return int(ix.many[string(key)]) - 1 }

// Next returns the position of the next tuple after position t with t's
// key, or -1 when t is the last.
func (ix *JoinIndex) Next(t int) int { return int(ix.next[t]) - 1 }

// AppendKey appends v's key encoding to buf: the kind byte, the 8-byte
// integer, the string's uvarint length, then its bytes. Every field has a
// known or stated length, so concatenated keys are equal exactly when
// their values are equal in turn (Value.Equal): no string content can
// forge a column boundary.
func AppendKey(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.Kind))
	buf = binary.BigEndian.AppendUint64(buf, uint64(v.Int))
	buf = binary.AppendUvarint(buf, uint64(len(v.Str)))
	return append(buf, v.Str...)
}
