package main

import (
	"errors"
	"testing"

	"p2prange"
	"p2prange/internal/rangeset"
)

func TestParsePublishSpec(t *testing.T) {
	tests := []struct {
		name     string
		spec     string
		wantRel  string
		wantPath string
		wantAttr string
		wantRg   p2prange.Range
		wantErr  bool
		wantIs   error
	}{
		{name: "empty", spec: "", wantErr: true},
		{name: "missing equals", spec: "Patient:f.csv:age:30-50", wantErr: true},
		{name: "too few parts", spec: "Patient=f.csv:30-50", wantErr: true},
		{name: "too many parts", spec: "Patient=f.csv:age:30-50:x", wantErr: true},
		{name: "open-ended", spec: "Patient=f.csv:age:73-", wantErr: true},
		{name: "no separator", spec: "Patient=f.csv:age:73", wantErr: true},
		{name: "non-numeric", spec: "Patient=f.csv:age:thirty-50", wantErr: true},
		{name: "inverted", spec: "Patient=f.csv:age:50-10", wantErr: true, wantIs: rangeset.ErrEmpty},
		{
			name:     "negative lower bound",
			spec:     "R=f.csv:age:-5-10",
			wantRel:  "R",
			wantPath: "f.csv",
			wantAttr: "age",
			wantRg:   rangeset.Range{Lo: -5, Hi: 10},
		},
		{
			name:     "both bounds negative",
			spec:     "R=f.csv:age:-20--3",
			wantRel:  "R",
			wantPath: "f.csv",
			wantAttr: "age",
			wantRg:   rangeset.Range{Lo: -20, Hi: -3},
		},
		{
			name:     "valid",
			spec:     "Patient=/data/patients.csv:age:30-50",
			wantRel:  "Patient",
			wantPath: "/data/patients.csv",
			wantAttr: "age",
			wantRg:   rangeset.Range{Lo: 30, Hi: 50},
		},
	}

	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rel, path, attr, rg, err := parsePublishSpec(tt.spec)
			if (err != nil) != tt.wantErr {
				t.Fatalf("parsePublishSpec(%q) error = %v, wantErr %v", tt.spec, err, tt.wantErr)
			}
			if tt.wantIs != nil && !errors.Is(err, tt.wantIs) {
				t.Errorf("parsePublishSpec(%q) error = %v, want %v", tt.spec, err, tt.wantIs)
			}
			if tt.wantErr {
				return
			}
			if rel != tt.wantRel || path != tt.wantPath || attr != tt.wantAttr || rg != tt.wantRg {
				t.Errorf("parsePublishSpec(%q) = %q, %q, %q, %v; want %q, %q, %q, %v",
					tt.spec, rel, path, attr, rg, tt.wantRel, tt.wantPath, tt.wantAttr, tt.wantRg)
			}
		})
	}
}
