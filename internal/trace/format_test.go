package trace_test

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"strings"
	"testing"
	"time"

	"p2prange/internal/chord"
	"p2prange/internal/rangeset"
	"p2prange/internal/trace"
)

// formatted is a Stringer that also implements fmt.Formatter, so fmt
// never calls its String: the appender must defer to fmt for it.
type formatted struct{}

func (formatted) String() string                { return "via String" }
func (formatted) Append(b []byte) []byte        { return append(b, "via Append"...) }
func (formatted) Format(f fmt.State, verb rune) { fmt.Fprintf(f, "via Format %c", verb) }

// TestEventfMatchesSprintf pins that event text is exactly what
// fmt.Sprintf prints, for every verb and argument type the call sites
// use and for the cases that must fall back to fmt.
func TestEventfMatchesSprintf(t *testing.T) {
	ref := chord.Ref{ID: 0x0b3371f0, Addr: "10.0.0.2:4000"}
	rg := rangeset.Range{Lo: 30, Hi: 50}
	var nilRange *rangeset.Range
	var nilPathErr *fs.PathError
	long := strings.Repeat("x", 200)
	longer := strings.Repeat("y", 20000)
	cases := []struct {
		format string
		args   []any
	}{
		// The call sites' shapes.
		{"%d probe(s)", []any{3}},
		{"id=%08x %s score=%.3f", []any{uint32(0xcf7d4f9f), rg, 1.0}},
		{"id=%08x none", []any{uint32(0x4cec38e0)}},
		{"%v replica=%v", []any{true, false}},
		{"%d", []any{int64(-17)}},
		{"%s hops=%d", []any{ref, 2}},
		{"%s (successor walk)", []any{ref}},
		{"%s past %s (owns id)", []any{ref, ref}},
		{"%v", []any{errors.New("chord: no predecessor")}},
		{"batch failed (%v), probing individually", []any{fmt.Errorf("wrapped: %w", errors.New("boom"))}},
		{"recall=%.3f < 1.000, going to source", []any{0.6666666}},
		{"%s -> %s", []any{rg, rangeset.Range{Lo: -5, Hi: 1 << 40}}},
		{"%d tuple(s) from %s", []any{1500, "10.0.0.3:4000"}},
		{"probe %d: %d candidate(s), least loaded %s load=%d", []any{1, 4, ref, int64(9)}},
		{"lookup %s.%s %s", []any{"Patient", "age", rg}},
		{"probe %d/%d id=%08x", []any{1, 5, uint32(0)}},
		{"batch @%s: %d probe(s)", []any{"10.0.0.2:4000", 2}},
		{"segment bucket %08x: %v", []any{uint32(0xbeef), errors.New("bad")}},
		{"opened seg %d for read-through: %d records (index rebuilt: %v)", []any{uint64(7), 130, false}},
		{"wal %d: %v — truncated at %d records", []any{uint64(3), errors.New("torn"), 12}},
		{"active wal %d, %s", []any{uint64(4), 1234567 * time.Nanosecond}},
		// Every integer type under %d, %v and %x.
		{"%d %d %d %d %d", []any{int8(-128), int16(300), int32(-70000), math.MinInt64, math.MaxInt64}},
		{"%d %d %d %d %d", []any{uint(1), uint8(255), uint16(65535), uint32(math.MaxUint32), uint64(math.MaxUint64)}},
		{"%v %v %v", []any{-1, uint64(math.MaxUint64), int8(7)}},
		{"%x %x %08x %08x %016x", []any{uint32(0), 255, uint64(0xdeadbeefcafe), 0x1234, uint64(42)}},
		{"%02x %2x %x %08x", []any{uint8(3), 7, -1, int64(-5)}},
		{"%d %v %s %x", []any{time.Second, time.Second, 90 * time.Minute, time.Second}},
		// Floats.
		{"%.3f %.3f %.3f %.3f %.0f %f %.10f", []any{0.0, -0.0001, 1e21, 2.0 / 3, 2.5, 3.25, math.Pi}},
		{"%.3f %.3f %.3f %v %08.3f", []any{math.Inf(1), math.Inf(-1), math.NaN(), 0.5, 1.5}},
		{"%.3f %.3f %.1f %.2f %.3f %.0f %.3f %.6f %.7f", []any{0.5, 0.001, 0.1, 123.25, 1e15, 1.0, 1e-9, 0.000001, 0.25}},
		{"%.3f %.3f %.3f %.2f", []any{0.0005, 0.0015, 4503599627370.5, 0.125}},
		// Strings, errors, appenders and what fmt owns.
		{"%s|%v|%s|", []any{"", "plain", long}},
		{"%s", []any{longer}},
		{"%v %s", []any{nil, nil}},
		{"%v", []any{error(nil)}},
		{"%s %v", []any{nilRange, nilPathErr}},
		{"%s %v %d", []any{formatted{}, formatted{}, formatted{}}},
		{"%s %q %x", []any{5, "quoted", "hex"}},
		{"%5d %-3d %+d % d %#x %t", []any{1, 2, 3, 4, 5, true}},
		{"%s %[1]s %*d", []any{"a", 3, 4}},
		// Literal percents, missing and extra arguments, a dangling verb.
		{"100%% of %d", []any{7}},
		{"%d and %d", []any{1}},
		{"%d", []any{1, 2}},
		{"no verbs", []any{"extra"}},
		{"dangling %", nil},
		{"dangling %0", nil},
		{"", nil},
	}
	for _, c := range cases {
		want := fmt.Sprintf(c.format, c.args...)
		sp := trace.New("root")
		sp.Eventf("k", c.format, c.args...)
		child := sp.Childf(c.format, c.args...)
		items := sp.Export().Items
		if got := items[0].Detail; got != want {
			t.Errorf("Eventf(%q, %v) = %q, want %q", c.format, c.args, got, want)
		}
		if got := items[1].Child.Name; got != want {
			t.Errorf("Childf(%q, %v) name = %q, want %q", c.format, c.args, got, want)
		}
		if got := child.Name(); got != want {
			t.Errorf("Childf(%q, %v).Name() = %q, want %q", c.format, c.args, got, want)
		}
	}
}

// TestRefAppendMatchesString pins chord.Ref's Append against the
// FmtID-based text the trace trees have always printed.
func TestRefAppendMatchesString(t *testing.T) {
	for _, r := range []chord.Ref{{}, {ID: 1, Addr: "a:1"}, {ID: math.MaxUint32, Addr: "[::1]:7002"}} {
		want := chord.FmtID(r.ID) + "@" + r.Addr
		if got := string(r.Append([]byte("x"))); got != "x"+want {
			t.Errorf("Append(%#v) = %q, want %q", r, got, "x"+want)
		}
		if got := r.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", r, got, want)
		}
	}
}

// TestEventfAllocs pins the recording cost: once the tree's buffer has
// grown, an event with a preformatted or fast-path text allocates
// nothing beyond boxing its non-constant arguments at the call site.
func TestEventfAllocs(t *testing.T) {
	sp := trace.New("root")
	for i := 0; i < 64; i++ {
		sp.Event("warm", strings.Repeat("w", 64))
	}
	if n := testing.AllocsPerRun(50, func() { sp.Event("hop", "10.0.0.2:4000") }); n != 0 {
		t.Errorf("Event allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { sp.Eventf("batch", "%d probe(s)", 3) }); n != 0 {
		t.Errorf("Eventf with a small int allocates %v times, want 0", n)
	}
}

// BenchmarkEventf records the serve path's most frequent event, a best
// match, into a tree whose buffer has already grown.
func BenchmarkEventf(b *testing.B) {
	rg := rangeset.Range{Lo: 30, Hi: 50}
	sp := trace.New("root")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%4096 == 4095 {
			sp = trace.New("root") // stay under the span item cap
		}
		sp.Eventf("best", "id=%08x %s score=%.3f", uint32(i)|1<<31, rg, 1.0)
	}
}
