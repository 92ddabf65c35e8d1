//go:build figures

package main

import "testing"

// TestFullFigures is the paper-scale figure gate behind `make figures`:
// `rangebench -fig all` must print results_full.txt in every cell that
// does not measure wall time. It takes minutes, so it builds only with
// the figures tag.
func TestFullFigures(t *testing.T) {
	checkFigures(t, "../../results_full.txt", "-fig", "all")
}
