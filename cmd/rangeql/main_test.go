package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"p2prange"
	"p2prange/internal/relation"
)

func TestDumpOrLoadRejectsBadArguments(t *testing.T) {
	sys, err := p2prange.New(p2prange.Config{Peers: 4, Seed: 1, Schema: relation.MedicalSchema()})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.csv")
	for _, c := range []struct{ line, want string }{
		{`\dump Patient`, "usage"},
		{`\load Patient ` + path + ` extra`, "usage"},
		{`\dump Nope ` + path, `no base relation "Nope"`},
		{`\load Nope ` + path, `relation "Nope" not in the schema`},
	} {
		err := dumpOrLoad(sys, c.line)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q: error %v, want one containing %q", c.line, err, c.want)
		}
	}
}

// TestDumpRejectedOverConnect: a member of a live ring holds no base
// relations of the ring, so \dump refuses and writes nothing.
func TestDumpRejectedOverConnect(t *testing.T) {
	lp, err := p2prange.StartPeer("127.0.0.1:0", "", p2prange.LiveConfig{
		Family: p2prange.ApproxMinWise,
		Schema: relation.MedicalSchema(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lp.Leave()
	path := filepath.Join(t.TempDir(), "patients.csv")
	err = dumpOrLoad(lp, `\dump Patient `+path)
	if err == nil || !strings.Contains(err.Error(), "simulated system") {
		t.Fatalf(`\dump over a live peer: error %v, want the simulated-system refusal`, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("refused \\dump still touched %s: %v", path, err)
	}
}

// TestDumpLoadRoundTrip dumps a base relation of a small simulated
// system to CSV, loads it into a second system, and checks the loaded
// relation writes back byte for byte.
func TestDumpLoadRoundTrip(t *testing.T) {
	src, err := buildSystem(4, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "patients.csv")
	if err := dumpOrLoad(src, `\dump Patient `+path); err != nil {
		t.Fatal(err)
	}
	dumped, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	dst, err := p2prange.New(p2prange.Config{Peers: 4, Seed: 2, Schema: relation.MedicalSchema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.Base("Patient"); ok {
		t.Fatal("fresh system already has a Patient base relation")
	}
	if err := dumpOrLoad(dst, `\load Patient `+path); err != nil {
		t.Fatal(err)
	}
	loaded, ok := dst.Base("Patient")
	if !ok {
		t.Fatal(`\load left no Patient base relation`)
	}
	want, _ := src.Base("Patient")
	if loaded.Len() != want.Len() || loaded.Len() == 0 {
		t.Fatalf("loaded %d tuples, dumped %d", loaded.Len(), want.Len())
	}
	var again bytes.Buffer
	if err := loaded.WriteCSV(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), dumped) {
		t.Error("loaded relation does not write back to the dumped CSV")
	}
}
