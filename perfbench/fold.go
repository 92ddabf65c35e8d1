package main

import (
	"strings"

	"p2prange/internal/trace"
)

// fold sums the span trees of traced operations into per-layer self
// times, in microseconds. A span's self time is its duration minus its
// children's; each span kind is charged to the layer it measures:
//
//	probe      chord routing of one identifier (route)
//	batch      a FindBestBatch round trip minus the remote serve (wire wait)
//	serve X    work at the remote owner; its self time is the store scan
//	           for FindBest, the put + replica push + commit for Store
//	seg.read   a read-through segment lookup (store disk tier)
//	publish    routing plus the Store round trip of one identifier
//	scan       one SQL selection leaf; its self time is the data fetch
//	           wait, the source fallback and the leaf filter
//	query      the SQL root and its join+project stage (exec)
//	lookup     the lookup root: signing, store-call waits, bookkeeping
//
// Lookup self time is what no span below it covers; the benchmark's own
// timing of signing is subtracted from it to give the residual.
type fold struct {
	rootUS     int64
	lookupSelf int64
	route      int64
	wire       int64
	publish    int64
	serve      int64 // every serve span, inclusive of seg.read
	scan       int64
	segRead    int64
	storeServe int64
	queryExec  int64
	queryScan  int64 // scan spans, inclusive
	other      int64
}

// add folds one finished root.
func (f *fold) add(root trace.Wire) {
	f.rootUS += root.DurUS
	f.walk(root)
}

func (f *fold) walk(w trace.Wire) {
	self := w.DurUS
	for _, it := range w.Items {
		if it.Child != nil {
			self -= it.Child.DurUS
			f.walk(*it.Child)
		}
	}
	if self < 0 {
		self = 0 // microsecond rounding of grafted remote spans
	}
	name := w.Name
	switch {
	case strings.HasPrefix(name, "query "), name == "join+project":
		f.queryExec += self
	case strings.HasPrefix(name, "lookup "):
		f.lookupSelf += self
	case strings.HasPrefix(name, "probe "):
		f.route += self
	case strings.HasPrefix(name, "batch "):
		f.wire += self
	case strings.HasPrefix(name, "publish "):
		f.publish += self
	case strings.HasPrefix(name, "scan "):
		f.queryScan += w.DurUS
	case name == "seg.read":
		f.segRead += self
	case strings.HasPrefix(name, "serve "):
		f.serve += w.DurUS
		switch kind, _, _ := strings.Cut(strings.TrimPrefix(name, "serve "), " "); kind {
		case "FindBest", "FindBestBatch":
			f.scan += self
		case "Store":
			f.storeServe += self
		}
	default:
		f.other += self
	}
}

func (f *fold) merge(g *fold) {
	f.rootUS += g.rootUS
	f.lookupSelf += g.lookupSelf
	f.route += g.route
	f.wire += g.wire
	f.publish += g.publish
	f.serve += g.serve
	f.scan += g.scan
	f.segRead += g.segRead
	f.storeServe += g.storeServe
	f.queryExec += g.queryExec
	f.queryScan += g.queryScan
	f.other += g.other
}

// residual is the share of root time no folded layer covers once signUS
// (the benchmark's own timing of the roots' signing) is charged to sign.
func (f *fold) residual(signUS float64) float64 {
	if f.rootUS == 0 {
		return 0
	}
	return (float64(f.lookupSelf+f.other) - signUS) / float64(f.rootUS)
}
