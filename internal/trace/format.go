package trace

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// appender is a fmt.Stringer that can also append its String text to a
// buffer without allocating (rangeset.Range, chord.Ref). Event text
// uses Append, so the two must agree byte for byte.
type appender interface {
	String() string
	Append([]byte) []byte
}

// appendf appends the text fmt.Sprintf(format, args...) produces,
// without fmt for the verbs and argument types event call sites use:
// %d, %v and %x with zero padding (%08x) on integers, %s and %v on
// strings, errors, time.Duration and appenders, %v on bools, and %f with
// a precision (%.3f) on floats. Anything else (another verb or flag, a
// mismatched argument, a nil, a type implementing fmt.Formatter)
// re-formats the whole text with fmt.Appendf, so the result is always
// what fmt would print.
func appendf(b []byte, format string, args []any) []byte {
	start, next := len(b), 0
	for i := 0; i < len(format); i++ {
		if j := strings.IndexByte(format[i:], '%'); j != 0 {
			if j < 0 {
				j = len(format) - i
			}
			b = append(b, format[i:i+j]...)
			i += j - 1
			continue
		}
		i++
		zero := i < len(format) && format[i] == '0'
		if zero {
			i++
		}
		width := 0
		for ; i < len(format) && '0' <= format[i] && format[i] <= '9' && width < 100; i++ {
			width = width*10 + int(format[i]-'0')
		}
		prec := -1
		if i < len(format) && format[i] == '.' {
			prec = 0
			for i++; i < len(format) && '0' <= format[i] && format[i] <= '9' && prec < 100; i++ {
				prec = prec*10 + int(format[i]-'0')
			}
		}
		if i >= len(format) {
			return fmt.Appendf(b[:start], format, args...)
		}
		verb := format[i]
		if verb == '%' && !zero && width == 0 && prec < 0 {
			b = append(b, '%')
			continue
		}
		if next == len(args) || zero != (width > 0) {
			return fmt.Appendf(b[:start], format, args...)
		}
		var ok bool
		if b, ok = appendArg(b, verb, width, prec, args[next]); !ok {
			return fmt.Appendf(b[:start], format, args...)
		}
		next++
	}
	if next != len(args) {
		return fmt.Appendf(b[:start], format, args...)
	}
	return b
}

// appendArg appends one argument under one verb. width > 0 means zero
// padding to width; prec < 0 means no precision. It reports false, and
// the caller falls back to fmt, for any combination it does not cover.
func appendArg(b []byte, verb byte, width, prec int, a any) ([]byte, bool) {
	switch verb {
	case 'd', 'x':
		if prec >= 0 {
			return b, false
		}
		base := 10
		if verb == 'x' {
			base = 16
		}
		u, neg, ok := intArg(a, verb == 'd')
		if !ok || neg && (width > 0 || base == 16) {
			return b, false
		}
		if neg {
			return strconv.AppendInt(b, -int64(u), 10), true
		}
		var digits [20]byte
		d := strconv.AppendUint(digits[:0], u, base)
		for n := len(d); n < width; n++ {
			b = append(b, '0')
		}
		return append(b, d...), true
	case 'f':
		f, ok := a.(float64)
		if !ok || width > 0 {
			return b, false
		}
		if prec < 0 {
			prec = 6
		}
		if b, ok := appendExactFixed(b, f, prec); ok {
			return b, true
		}
		return strconv.AppendFloat(b, f, 'f', prec, 64), true
	case 's', 'v':
		if width > 0 || prec >= 0 {
			return b, false
		}
		switch v := a.(type) {
		case string:
			return append(b, v...), true
		case bool:
			return strconv.AppendBool(b, v), verb == 'v'
		case time.Duration:
			return append(b, v.String()...), true
		case fmt.Formatter:
			return b, false
		case error:
			if nilPointer(v) {
				return b, false
			}
			return append(b, v.Error()...), true
		case appender:
			if nilPointer(v) {
				return b, false
			}
			return v.Append(b), true
		}
		if u, neg, ok := intArg(a, false); ok && verb == 'v' {
			if neg {
				return strconv.AppendInt(b, -int64(u), 10), true
			}
			return strconv.AppendUint(b, u, 10), true
		}
	}
	return b, false
}

// pow10 holds the scales appendExactFixed handles exactly.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// appendExactFixed is %.<prec>f for the common case of a non-negative f
// that is a whole number of 10^-prec units once scaled (a score of 1.000
// or 0.500). If f*10^prec rounds to an integer k below 2^52, f is within
// k*2^-53 units of k, far inside the half unit that would round it
// elsewhere, so k's digits are exactly what strconv would print. It
// reports false for every other f.
func appendExactFixed(b []byte, f float64, prec int) ([]byte, bool) {
	if prec >= len(pow10) || !(f >= 0) || math.Signbit(f) {
		return b, false
	}
	x := f * pow10[prec]
	if x >= 1<<52 || x != math.Trunc(x) {
		return b, false
	}
	k, scale := uint64(x), uint64(pow10[prec])
	b = strconv.AppendUint(b, k/scale, 10)
	if prec > 0 {
		// k%scale+scale has exactly prec+1 digits: drop the leading 1.
		var frac [8]byte
		b = append(b, '.')
		b = append(b, strconv.AppendUint(frac[:0], k%scale+scale, 10)[1:]...)
	}
	return b, true
}

// intArg reads a built-in integer as magnitude and sign. A
// time.Duration counts only when duration is set: %d prints it as an
// integer, but %v and %x go through its String method.
func intArg(a any, duration bool) (u uint64, neg, ok bool) {
	var i int64
	switch v := a.(type) {
	case int:
		i = int64(v)
	case int8:
		i = int64(v)
	case int16:
		i = int64(v)
	case int32:
		i = int64(v)
	case int64:
		i = v
	case time.Duration:
		if !duration {
			return 0, false, false
		}
		i = int64(v)
	case uint:
		return uint64(v), false, true
	case uint8:
		return uint64(v), false, true
	case uint16:
		return uint64(v), false, true
	case uint32:
		return uint64(v), false, true
	case uint64:
		return v, false, true
	default:
		return 0, false, false
	}
	if i < 0 {
		return uint64(-i), true, true
	}
	return uint64(i), false, true
}

// nilPointer reports whether a holds a nil pointer, whose methods fmt
// guards against and this package does not call.
func nilPointer(a any) bool {
	v := reflect.ValueOf(a)
	return v.Kind() == reflect.Pointer && v.IsNil()
}
