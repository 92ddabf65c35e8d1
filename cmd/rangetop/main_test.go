package main

import (
	"reflect"
	"testing"
)

func TestSplitAddrs(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []string
	}{
		{name: "empty", in: "", want: nil},
		{name: "only separators", in: ",,", want: nil},
		{name: "only whitespace", in: "  \t ", want: nil},
		{name: "single", in: "127.0.0.1:8001", want: []string{"127.0.0.1:8001"}},
		{name: "several", in: "a:1,b:2,c:3", want: []string{"a:1", "b:2", "c:3"}},
		{name: "blank entries", in: "a:1,,b:2, ,c:3", want: []string{"a:1", "b:2", "c:3"}},
		{name: "whitespace around entries", in: " a:1 ,\tb:2\n", want: []string{"a:1", "b:2"}},
		{name: "trailing comma", in: "a:1,b:2,", want: []string{"a:1", "b:2"}},
		{name: "leading comma", in: ",a:1", want: []string{"a:1"}},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := splitAddrs(tt.in); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("splitAddrs(%q) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

func TestFmtUS(t *testing.T) {
	tests := []struct {
		name string
		us   int64
		want string
	}{
		{name: "zero", us: 0, want: "-"},
		{name: "negative", us: -7, want: "-"},
		{name: "rounds up to 10µs", us: 15, want: "20µs"},
		{name: "exact 10µs", us: 40, want: "40µs"},
		{name: "milliseconds round down", us: 1234, want: "1.23ms"},
		{name: "milliseconds round half up", us: 1235, want: "1.24ms"},
		{name: "seconds", us: 2_500_000, want: "2.5s"},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := fmtUS(tt.us); got != tt.want {
				t.Errorf("fmtUS(%d) = %q, want %q", tt.us, got, tt.want)
			}
		})
	}
}

func TestFmtBytes(t *testing.T) {
	tests := []struct {
		name string
		n    int64
		want string
	}{
		{name: "zero", n: 0, want: "0B"},
		{name: "just below 1 KiB", n: 1<<10 - 1, want: "1023B"},
		{name: "exactly 1 KiB", n: 1 << 10, want: "1.0KiB"},
		{name: "one and a half KiB", n: 1536, want: "1.5KiB"},
		{name: "just below 1 MiB", n: 1<<20 - 1, want: "1024.0KiB"},
		{name: "exactly 1 MiB", n: 1 << 20, want: "1.0MiB"},
		{name: "just below 1 GiB", n: 1<<30 - 1, want: "1024.0MiB"},
		{name: "exactly 1 GiB", n: 1 << 30, want: "1.0GiB"},
		{name: "many GiB", n: 5 << 30, want: "5.0GiB"},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := fmtBytes(tt.n); got != tt.want {
				t.Errorf("fmtBytes(%d) = %q, want %q", tt.n, got, tt.want)
			}
		})
	}
}
