package peer

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"p2prange/internal/chord"
	"p2prange/internal/flight"
	"p2prange/internal/metrics"
	"p2prange/internal/minhash"
	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/replica"
	"p2prange/internal/store"
	"p2prange/internal/trace"
	"p2prange/internal/transport"
)

// The Default-registry peer.* family: protocol-level counters aggregated
// across every peer in the process (one live peer, or a whole simulated
// cluster).
var (
	metLookups    = metrics.Default.Counter("peer.lookups")
	metProbes     = metrics.Default.Counter("peer.probes")
	metBatches    = metrics.Default.Counter("peer.batches")
	metStores     = metrics.Default.Counter("peer.stores")
	metPublishes  = metrics.Default.Counter("peer.publishes")
	metFetches    = metrics.Default.Counter("peer.fetches")
	metPartitions = metrics.Default.Gauge("peer.partitions")
	metLookupUS   = metrics.Default.IntHistogram("peer.lookup_us")
)

// Partition protocol messages.
type (
	// FindBestResp returns one bucket's best candidate, if any: the
	// element of a FindBestBatchResp.
	FindBestResp struct {
		Match store.Match
		Found bool
	}
	// StoreReq asks the peer owning bucket ID to record a descriptor.
	// Replica marks copies an owner pushes to its successors; replicas
	// are stored but not re-replicated.
	StoreReq struct {
		ID        uint32
		Partition store.Partition
		Replica   bool
	}
	// StoreResp acknowledges and reports whether it was new.
	StoreResp struct{ Stored bool }
	// FetchDataReq asks a holder peer for a partition's tuples.
	FetchDataReq struct {
		Relation  string
		Attribute string
		Range     rangeset.Range
	}
	// FetchDataResp carries the materialized tuples.
	FetchDataResp struct {
		Found bool
		Data  wireRelation
	}
)

// wireRelation is the wire form of relation.Relation (schemas travel by
// name; every peer knows the global schema).
type wireRelation struct {
	Relation string
	Tuples   []relation.Tuple
}

func init() {
	for _, v := range []any{
		FindBestResp{}, StoreReq{}, StoreResp{},
		FetchDataReq{}, FetchDataResp{},
	} {
		transport.RegisterType(v)
	}
}

// Config parameterizes a peer.
type Config struct {
	// Scheme maps ranges to DHT identifiers: the shared LSH scheme
	// (*minhash.Scheme — all peers must use identical key material or
	// identifiers will not line up), or minhash.ExactScheme for the
	// Section 3.1 exact-match baseline.
	Scheme minhash.Hasher
	// Measure is the bucket-level match measure (default Jaccard).
	Measure store.Measure
	// Chord configures the DHT node.
	Chord chord.Config
	// Schema is the global relational schema; may be nil for range-only
	// deployments (no data serving).
	Schema *relation.Schema
	// UsePeerIndex enables the Section 5.3 extension: bucket searches at a
	// peer consult all buckets the peer owns, not just the requested one.
	UsePeerIndex bool
	// Replicas pushes each stored descriptor to that many ring successors
	// so an owner crash does not lose it: after the ring repairs, the
	// bucket's new owner (the first successor) already holds the copy.
	// Setting it enables the replica subsystem: version+origin stamping,
	// anti-entropy repair (see RepairReplicas), and hot-bucket promotion.
	Replicas int
	// LoadAware routes each bucket probe to the least-loaded live member
	// of the bucket's replica set instead of always its owner. It needs
	// Replicas > 0: New refuses it without.
	LoadAware bool
	// HotThreshold is the decayed per-bucket probe count that promotes a
	// bucket to its hot replica set, 2*(Replicas+1) copies (default
	// replica.DefaultHotThreshold).
	HotThreshold uint64
	// CacheCapacity bounds the peer's descriptor store; on overflow the
	// least-recently-matched descriptor evicts. 0 means unbounded (the
	// paper's model).
	CacheCapacity int
	// SigCache bounds the peer's signature cache: an LRU of per-range
	// LSH identifiers reused across lookups, so a repeated range skips
	// rehashing. 0 disables it. Effective only when Scheme is a
	// *minhash.Scheme.
	SigCache int
}

// AuxHandler extends a peer's protocol with additional message types
// (e.g. the distributed-join service). It reports whether it recognized
// the request.
type AuxHandler func(req any) (resp any, handled bool, err error)

// Peer is one node of the system.
type Peer struct {
	cfg     Config
	node    *chord.Node
	store   *store.Store
	caller  transport.Caller
	signer  *minhash.Signer  // non-nil when Scheme is a *minhash.Scheme
	replica *replica.Manager // non-nil when Config.Replicas > 0
	served  atomic.Int64     // bucket probes answered by this peer
	flight  atomic.Pointer[flight.Recorder]
	// serveNames names the serve span of each serveKinds entry.
	serveNames [len(serveKinds)]string

	mu   sync.RWMutex
	data map[string]*relation.Partition // materialized partitions by Key()
	aux  []AuxHandler
}

// New creates a peer at addr using caller to reach others. Register its
// Handle with the transport before use.
func New(addr string, caller transport.Caller, cfg Config) (*Peer, error) {
	if cfg.Scheme == nil {
		return nil, errors.New("peer: Config.Scheme is required")
	}
	if cfg.LoadAware && cfg.Replicas <= 0 {
		return nil, errors.New("peer: Config.LoadAware needs Replicas > 0")
	}
	st := store.New()
	if cfg.CacheCapacity > 0 {
		st = store.NewBounded(cfg.CacheCapacity)
	}
	p := &Peer{
		cfg:    cfg,
		store:  st,
		caller: caller,
		data:   make(map[string]*relation.Partition),
	}
	for i, kind := range serveKinds {
		p.serveNames[i] = "serve " + kind + " @" + addr
	}
	// Route LSH hashing through the signer: range-efficient minima always
	// (identifiers are bit-identical to the naive path), plus the
	// signature cache when configured.
	if sch, ok := cfg.Scheme.(*minhash.Scheme); ok {
		p.signer = minhash.NewSigner(sch, minhash.WithSigCache(cfg.SigCache))
		p.cfg.Scheme = p.signer
	} else if sg, ok := cfg.Scheme.(*minhash.Signer); ok {
		p.signer = sg
	}
	p.node = chord.NewNode(addr, transport.ChordClient{Caller: caller}, cfg.Chord)
	if cfg.Replicas > 0 {
		// Config.Replicas counts successor copies; replica.Config.R counts
		// total copies including the owner.
		p.replica = replica.NewManager(p.node.Ref(), p.store, replica.Config{
			R:            cfg.Replicas + 1,
			HotThreshold: cfg.HotThreshold,
		}, replica.Deps{
			Successors: p.node.Successors,
			Owns:       p.node.Owns,
			Suspect:    p.node.MarkSuspect,
			Push: func(to chord.Ref, id uint32, part store.Partition) error {
				_, err := p.Call(to, StoreReq{ID: id, Partition: part, Replica: true})
				return err
			},
			Call: p.Call,
		})
	}
	return p, nil
}

// SetFlight installs the flight recorder the serving side finishes into:
// every traced protocol request this peer answers is recorded — under the
// caller's sampled trace when one arrives, or under a locally opened root
// span when none does — so a peer that only ever *serves* still retains
// its slow and errored requests. A nil recorder (the default) disables
// serve-side recording entirely.
func (p *Peer) SetFlight(rec *flight.Recorder) { p.flight.Store(rec) }

// Flight returns the installed recorder (nil when none).
func (p *Peer) Flight() *flight.Recorder { return p.flight.Load() }

// Node exposes the chord node (for ring construction and diagnostics).
func (p *Peer) Node() *chord.Node { return p.node }

// Store exposes the partition store (for load accounting).
func (p *Peer) Store() *store.Store { return p.store }

// Addr returns the peer's transport address.
func (p *Peer) Addr() string { return p.node.Addr() }

// Ref returns the peer's chord reference.
func (p *Peer) Ref() chord.Ref { return p.node.Ref() }

// Handle dispatches an incoming request (chord or partition protocol);
// it is the peer's transport.Handler. When the caller's context is
// sampled and the request is part of the traced protocol, the work runs
// under a serving-side span named for this peer ("serve FindBestBatch
// @addr" with a "from" event naming the caller), and the finished
// subtree is returned as a fragment for the transport to piggyback home.
// A zero context serves untraced. Chord routing RPCs stay untraced —
// routing is iterative, so every hop is already visible on the querying
// side.
func (p *Peer) Handle(tc trace.Context, req any) (any, []byte, error) {
	if resp, handled, err := transport.DispatchChord(p.node, req); handled {
		return resp, nil, err
	}
	var sp *trace.Span
	var local bool // span opened by the flight recorder, not the caller
	rec := p.flight.Load()
	if kind := serveKind(req); kind >= 0 {
		switch {
		case tc.Sampled:
			sp = trace.Remote(tc, p.serveNames[kind])
			sp.Event("from", tc.Caller)
		case rec.On():
			// No sampled context arrived, but the flight recorder is on:
			// open a local root so this serve is retained if it turns out
			// slow or errored. The span stays off the wire — the caller
			// did not ask for a fragment.
			local = true
			sp = rec.Start(p.serveNames[kind])
			if tc.Caller != "" {
				sp.Event("from", tc.Caller)
			}
		}
	}
	resp, err := p.handle(req, sp)
	if sp.On() {
		sp.End()
		rec.Finish(flight.KindServe, sp, 0, err)
		if local {
			return resp, nil, err
		}
		// Encoded once, after Finish: the transport carries these bytes
		// as they are and the caller grafts them as bytes.
		return resp, sp.Fragment(), err
	}
	return resp, nil, err
}

// serveKinds names the traced protocol messages, indexed by serveKind.
var serveKinds = [...]string{"FindBestBatch", "Store", "Sync", "Load", "FetchData"}

// serveKind returns req's index in serveKinds, or -1 for requests that
// serve without a span (handoff, arc transfer, aux protocols).
func serveKind(req any) int {
	switch req.(type) {
	case FindBestBatchReq:
		return 0
	case StoreReq:
		return 1
	case replica.SyncReq:
		return 2
	case replica.LoadReq:
		return 3
	case FetchDataReq:
		return 4
	}
	return -1
}

// handle serves one non-chord request, annotating sp (which may be nil)
// with the outcome.
func (p *Peer) handle(req any, sp *trace.Span) (any, error) {
	switch r := req.(type) {
	case FindBestBatchReq:
		// A batch carries the probes of one lookup, so never more than l:
		// refuse a larger one before sizing anything by its count.
		if l := p.cfg.Scheme.L(); len(r.IDs) > l {
			return nil, fmt.Errorf("peer: batch of %d probes exceeds l=%d", len(r.IDs), l)
		}
		if sp.On() {
			sp.Eventf("batch", "%d probe(s)", len(r.IDs))
		}
		resp := FindBestBatchResp{Results: make([]FindBestResp, len(r.IDs))}
		for i, id := range r.IDs {
			fb := p.findBest(id, r.Relation, r.Attribute, r.Range, r.Measure, sp)
			resp.Results[i] = fb
			if sp.On() {
				if fb.Found {
					sp.Eventf("best", "id=%08x %s score=%.3f", id, fb.Match.Partition.Range, fb.Match.Score)
				} else {
					sp.Eventf("best", "id=%08x none", id)
				}
			}
		}
		return resp, nil
	case StoreReq:
		if p.replica != nil && !r.Replica && !p.store.Has(r.ID, r.Partition) {
			// Stamp only descriptors this owner is about to admit:
			// re-stamping a duplicate would make every re-publish look
			// newer than the stored copy and defeat first-holder-wins.
			p.replica.Stamp(&r.Partition)
		}
		stored := p.store.Put(r.ID, r.Partition)
		if stored && !r.Replica && p.replica != nil {
			p.replica.Replicate(r.ID, r.Partition)
		}
		// Durability barrier before the ack: a StoreResp promises the
		// descriptor survives this peer's crash.
		if err := p.store.Commit(); err != nil {
			return nil, fmt.Errorf("peer: store not durable: %w", err)
		}
		if sp.On() {
			sp.Eventf("stored", "%v replica=%v", stored, r.Replica)
		}
		return StoreResp{Stored: stored}, nil
	case replica.SyncReq:
		// Answerable from the store alone, so a peer with replication
		// disabled still reports honestly what it lacks.
		missing := p.store.MissingFrom(r.Digest)
		if sp.On() {
			sp.Eventf("missing", "%d descriptor(s)", len(missing))
		}
		return replica.SyncResp{Missing: missing}, nil
	case replica.LoadReq:
		// A load request names the buckets of one lookup owned here, so
		// never more than l, like a probe batch.
		if l := p.cfg.Scheme.L(); len(r.IDs) > l {
			return nil, fmt.Errorf("peer: load request for %d buckets exceeds l=%d", len(r.IDs), l)
		}
		// Without replication the answer is the gauge alone, which ranks
		// this owner as its buckets' only candidate.
		resp := replica.LoadResp{Load: p.served.Load()}
		if p.replica != nil {
			resp = p.replica.HandleLoad(r)
			if len(r.IDs) > 0 {
				resp.Successors = p.node.SuccessorList()
			}
		}
		if sp.On() {
			sp.Eventf("load", "%d", resp.Load)
		}
		return resp, nil
	case HandoffReq:
		return p.handleHandoff(r)
	case TransferArcReq:
		return p.handleTransferArc(r)
	case FetchDataReq:
		part, ok := p.localPartition(r.Relation, r.Attribute, r.Range)
		if !ok {
			sp.Event("data", "not held")
			return FetchDataResp{Found: false}, nil
		}
		if sp.On() {
			sp.Eventf("data", "%d tuple(s)", len(part.Data.Tuples))
		}
		return FetchDataResp{
			Found: true,
			Data:  wireRelation{Relation: part.Relation, Tuples: part.Data.Tuples},
		}, nil
	default:
		p.mu.RLock()
		aux := p.aux
		p.mu.RUnlock()
		for _, h := range aux {
			if resp, handled, err := h(req); handled {
				return resp, err
			}
		}
		return nil, transport.BadRequest(req)
	}
}

// findBest serves one bucket probe of a batch: load accounting,
// hot-bucket hit tracking, and the store search. sp (may be nil) gains a
// seg.read child span when the probe falls through to the segment tier.
func (p *Peer) findBest(id uint32, rel, attribute string, q rangeset.Range, measure store.Measure, sp *trace.Span) FindBestResp {
	p.served.Add(1)
	if p.replica != nil {
		p.replica.Hit(id)
	}
	var m store.Match
	var ok bool
	if p.cfg.UsePeerIndex {
		m, ok = p.store.FindBestAnywhere(rel, attribute, q, measure, sp)
	} else {
		m, ok = p.store.FindBest(id, rel, attribute, q, measure, sp)
	}
	return FindBestResp{Match: m, Found: ok}
}

// ServedProbes returns how many bucket probes this peer has answered —
// the per-peer load the load experiment compares across the cluster.
func (p *Peer) ServedProbes() int64 { return p.served.Load() }

// RepairReplicas runs one anti-entropy round against the successor list
// (a no-op without replication). The chord Maintainer drives it in live
// deployments; simulations call it between query batches.
func (p *Peer) RepairReplicas() replica.SyncStats {
	if p.replica == nil {
		return replica.SyncStats{}
	}
	return p.replica.Sync()
}

// RegisterAux installs an auxiliary protocol handler, consulted for
// request types the core protocol does not recognize.
func (p *Peer) RegisterAux(h AuxHandler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.aux = append(p.aux, h)
}

// RouteOwner resolves the peer owning a raw identifier (for services,
// like the distributed join, that place their own keys on the ring).
func (p *Peer) RouteOwner(id uint32) (chord.Ref, int, error) {
	return p.node.Lookup(id, nil, nil)
}

// Call sends a request to a ref, short-circuiting locally; exposed for
// auxiliary services built on the peer's transport.
func (p *Peer) Call(to chord.Ref, req any) (any, error) {
	return p.callCtx(to.Addr, req, nil)
}

// Identifiers returns the l LSH identifiers of q.
func (p *Peer) Identifiers(q rangeset.Range) []uint32 {
	return p.cfg.Scheme.Identifiers(q)
}

// sign returns the l identifiers of q, recording on sp (which may be nil)
// whether this call hit the signature cache.
func (p *Peer) sign(q rangeset.Range, sp *trace.Span) []uint32 {
	if p.signer == nil {
		sp.Event("sig", "no signer")
		return p.cfg.Scheme.Identifiers(q)
	}
	ids, hit := p.signer.IdentifiersHit(q)
	if hit {
		sp.Event("sig", "hit")
	} else {
		sp.Event("sig", "miss")
	}
	return ids
}

// SigStats returns a snapshot of the peer's signature-cache counters
// (zero when the peer hashes outside a signer, e.g. the exact-match
// baseline).
func (p *Peer) SigStats() metrics.SigSnapshot {
	if p.signer == nil {
		return metrics.SigSnapshot{}
	}
	return p.signer.SigStats()
}

// LookupResult is the outcome of a Section 4 range lookup.
type LookupResult struct {
	// Match is the best partition found across all l probes.
	Match store.Match
	// Found reports whether any probe returned a candidate.
	Found bool
	// Hops holds the chord path length of each of the l probes; its mean
	// and distribution are the Fig. 12 metrics.
	Hops []int
	// Stored reports whether the query's own partition descriptor was
	// cached (it is, at all l owners, whenever the best match is not
	// exact).
	Stored bool
}

// MaxRangeSize bounds the value-set size of a range the protocol
// accepts. It validates input: an unclamped half-open range (e.g. 2^63
// values) is a malformed query. Signing cost does not grow with the
// range size (minhash.MinHashRange).
const MaxRangeSize = 1 << 22

// ErrBadRange reports a range the protocol refuses to hash: inverted, or
// holding more than MaxRangeSize values. Unlike a routing or transport
// failure, retrying the same range cannot succeed.
var ErrBadRange = errors.New("peer: range not hashable")

// checkRange validates a range for the hashing protocol; its errors wrap
// ErrBadRange.
func checkRange(q rangeset.Range) error {
	if !q.Valid() {
		return fmt.Errorf("%w: invalid range %s", ErrBadRange, q)
	}
	// A valid range has at least one value, so a non-positive Size means
	// Hi-Lo+1 overflowed int64 — e.g. [MinInt64, MaxInt64] wraps to 0.
	if size := q.Size(); size <= 0 || size > MaxRangeSize {
		return fmt.Errorf("%w: range %s too large (max %d values)", ErrBadRange, q, MaxRangeSize)
	}
	return nil
}

// Lookup runs the paper's query-side protocol for a range selection on
// relation.attribute: hash to l identifiers, route to each owner, collect
// best matches, and return the overall best. When cache is true and no
// exact match (score 1) exists, the query range is also recorded at the l
// owners — "If none of the match is exact, also store the computed
// partition at the peers holding the computed identifiers."
//
// The l probes share one chord.RouteMemo, so each intermediate peer's
// route table is fetched once per lookup. Each probe then gets a target:
// its owner, or with load-aware routing the least-loaded member of its
// bucket's replica set, chosen by one replica.Manager.Rank load round
// for the whole lookup. Probes bound for the same target share one
// FindBestBatchReq round trip. sp (which may be nil) records the
// signature-cache outcome, one child span per probe holding its chord
// routing, a "select" child span holding the load round, one child span
// per batch round trip carrying the remote serve span and the per-probe
// outcomes, and the store decision.
// Traced or not, the wire protocol is the same, so the flight recorder's
// always-sampled root changes no RPC count.
func (p *Peer) Lookup(rel, attribute string, q rangeset.Range, cache bool, sp *trace.Span) (LookupResult, error) {
	metLookups.Inc()
	start := time.Now()
	var res LookupResult
	if err := checkRange(q); err != nil {
		return res, err
	}
	ids := p.sign(q, sp)
	owners := make([]chord.Ref, len(ids))
	res.Hops = make([]int, 0, len(ids))
	var memo chord.RouteMemo
	for i, id := range ids {
		metProbes.Inc()
		var ps *trace.Span
		if sp.On() {
			ps = sp.Childf("probe %d/%d id=%08x", i+1, len(ids), id)
		}
		owner, hops, err := p.node.Lookup(id, &memo, ps)
		ps.End()
		if err != nil {
			return res, fmt.Errorf("peer: route to bucket %08x: %w", id, err)
		}
		res.Hops = append(res.Hops, hops)
		owners[i] = owner
	}
	// Give every probe a target: its owner, or under load-aware routing
	// the least-loaded member of its bucket's replica set, chosen in one
	// load round for the whole lookup.
	targets := owners
	var ranked [][]replica.Candidate
	if p.cfg.LoadAware {
		ss := sp.Child("select")
		ranked = p.replica.Rank(ids, owners, ss)
		ss.End()
		targets = make([]chord.Ref, len(ids))
		for i, cands := range ranked {
			targets[i] = owners[i]
			if len(cands) > 0 {
				targets[i] = cands[0].Ref
			}
		}
	}
	// Lay the probes out batch by batch: order lists probe indices with
	// each target's probes contiguous, targets in first-seen order, and
	// batchIDs holds their identifiers in the same order, so every batch
	// is a subslice of both.
	order := make([]int, 0, len(ids))
	for i := range ids {
		if !refSeen(targets[:i], targets[i]) {
			for j := i; j < len(ids); j++ {
				if targets[j].ID == targets[i].ID {
					order = append(order, j)
				}
			}
		}
	}
	batchIDs := make([]uint32, len(order))
	for k, i := range order {
		batchIDs[k] = ids[i]
	}
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && targets[order[hi]].ID == targets[order[lo]].ID {
			hi++
		}
		req := FindBestBatchReq{
			Relation: rel, Attribute: attribute, Range: q, Measure: p.cfg.Measure,
			IDs: batchIDs[lo:hi],
		}
		if err := p.probeBatch(req, order[lo:hi], targets[order[lo]], owners, ranked, &res, sp); err != nil {
			return res, err
		}
		lo = hi
	}
	exact := res.Found && res.Match.Partition.Range == q
	if cache && !exact {
		for i, id := range ids {
			metStores.Inc()
			_, _, err := p.callOwner(id, owners[i], StoreReq{
				ID: id,
				Partition: store.Partition{
					Relation: rel, Attribute: attribute, Range: q, Holder: p.Addr(),
				},
			}, sp)
			if err != nil {
				return res, err
			}
		}
		res.Stored = true
		if sp.On() {
			sp.Eventf("store", "descriptor cached at %d owner(s)", len(ids))
		}
	} else if sp.On() && cache {
		sp.Event("store", "skipped (exact match)")
	}
	metLookupUS.Observe(uint64(time.Since(start).Microseconds()))
	return res, nil
}

// refSeen reports whether r is among seen.
func refSeen(seen []chord.Ref, r chord.Ref) bool {
	for _, o := range seen {
		if o.ID == r.ID {
			return true
		}
	}
	return false
}

// probeBatch sends one batch of a lookup's probes — identifiers req.IDs
// of probes idx, all bound for target — as a single round trip under a
// "batch" child span of sp, and merges the answers into res. ranked is
// nil unless the lookup is load-aware; then ranked[i] lists probe i's
// candidates, target first. If the round trip fails, a load-aware
// target is suspected and each probe tries its remaining candidates one
// at a time; a probe no candidate answers falls back to its own owner
// call, where callOwner re-resolves a dead owner. owners[i] then records
// the owner that answered, so the store-on-miss phase lands at owners,
// never replicas.
func (p *Peer) probeBatch(req FindBestBatchReq, idx []int, target chord.Ref, owners []chord.Ref, ranked [][]replica.Candidate, res *LookupResult, sp *trace.Span) error {
	metBatches.Inc()
	var bs *trace.Span
	if sp.On() {
		bs = sp.Childf("batch @%s: %d probe(s)", target.Addr, len(idx))
	}
	defer bs.End()
	resp, err := p.callCtx(target.Addr, req, bs)
	if br, ok := resp.(FindBestBatchResp); err == nil && ok && len(br.Results) == len(idx) {
		for j, i := range idx {
			if ranked != nil {
				k := 0
				if len(ranked[i]) == 0 {
					k = -1
				}
				replica.Settle(i+1, owners[i], ranked[i], k, bs)
			}
			res.merge(i, br.Results[j], bs)
		}
		return nil
	}
	if ranked != nil && err != nil && transport.Retryable(err) {
		p.node.MarkSuspect(target.ID)
	}
	if bs.On() {
		if err != nil {
			bs.Eventf("fallback", "batch failed (%v), probing individually", err)
		} else {
			bs.Event("fallback", "unexpected batch response, probing individually")
		}
	}
	failed := []chord.ID{target.ID}
	for j, i := range idx {
		one := req
		one.IDs = req.IDs[j : j+1]
		if p.probeCandidates(one, i, owners[i], ranked, &failed, res, bs) {
			continue
		}
		answered, r, err := p.callOwner(one.IDs[0], owners[i], one, bs)
		if err != nil {
			return err
		}
		owners[i] = answered
		br, ok := r.(FindBestBatchResp)
		if !ok || len(br.Results) != 1 {
			return transport.BadRequest(r)
		}
		res.merge(i, br.Results[0], bs)
	}
	return nil
}

// probeCandidates sends the one-probe batch req of probe i to its ranked
// candidates after the first, in rank order, skipping members already
// failed in this batch, and merges the first answer into res. It reports
// whether one answered; if none did under load-aware routing, the
// fallback to the owner path is recorded.
func (p *Peer) probeCandidates(req FindBestBatchReq, i int, owner chord.Ref, ranked [][]replica.Candidate, failed *[]chord.ID, res *LookupResult, sp *trace.Span) bool {
	if ranked == nil {
		return false
	}
	cands := ranked[i]
	for k := 1; k < len(cands); k++ {
		c := cands[k].Ref
		if slices.Contains(*failed, c.ID) {
			continue
		}
		resp, err := p.callCtx(c.Addr, req, sp)
		if br, ok := resp.(FindBestBatchResp); err == nil && ok && len(br.Results) == 1 {
			replica.Settle(i+1, owner, cands, k, sp)
			res.merge(i, br.Results[0], sp)
			return true
		}
		*failed = append(*failed, c.ID)
		if err != nil && transport.Retryable(err) {
			p.node.MarkSuspect(c.ID)
		}
		if sp.On() {
			sp.Eventf("replica", "probe %d: %s failed (%v), trying next", i+1, c, err)
		}
	}
	replica.Settle(i+1, owner, cands, -1, sp)
	return false
}

// merge folds probe i's answer into the running best, noting it on sp.
func (res *LookupResult) merge(i int, fb FindBestResp, sp *trace.Span) {
	if fb.Found && (!res.Found || fb.Match.Score > res.Match.Score) {
		res.Match = fb.Match
		res.Found = true
	}
	if sp.On() {
		if fb.Found {
			sp.Eventf("match", "probe %d: %s score=%.3f", i+1, fb.Match.Partition.Range, fb.Match.Score)
		} else {
			sp.Eventf("match", "probe %d: none", i+1)
		}
	}
}

// Publish stores a partition descriptor (held by this peer) under its l
// identifiers, routing to each owner (the l routes share one
// chord.RouteMemo, as in Lookup), and records each bucket resolution on
// sp (which may be nil). It returns the chord hop counts.
func (p *Peer) Publish(part store.Partition, sp *trace.Span) ([]int, error) {
	metPublishes.Inc()
	if part.Holder == "" {
		part.Holder = p.Addr()
	}
	if err := checkRange(part.Range); err != nil {
		return nil, err
	}
	ids := p.cfg.Scheme.Identifiers(part.Range)
	hops := make([]int, 0, len(ids))
	var memo chord.RouteMemo
	for i, id := range ids {
		var ps *trace.Span
		if sp.On() {
			ps = sp.Childf("publish %d/%d id=%08x", i+1, len(ids), id)
		}
		owner, h, err := p.node.Lookup(id, &memo, ps)
		if err != nil {
			ps.End()
			return hops, fmt.Errorf("peer: route to bucket %08x: %w", id, err)
		}
		hops = append(hops, h)
		metStores.Inc()
		_, _, err = p.callOwner(id, owner, StoreReq{ID: id, Partition: part}, ps)
		ps.End()
		if err != nil {
			return hops, err
		}
	}
	return hops, nil
}

// callCtx sends a request to the peer at addr, short-circuiting to the
// local handler when addr is this peer. The request carries sp's context
// (zero when sp is nil) and any serve spans returned with the response
// are grafted under sp; the local short-circuit runs Handle directly, so
// a peer calling itself produces the same serve span a remote peer
// would — tree shapes match across transports.
func (p *Peer) callCtx(addr string, req any, sp *trace.Span) (any, error) {
	tc := sp.Context(p.Addr())
	var resp any
	var frags []byte
	var err error
	if addr == p.Addr() {
		resp, frags, err = p.Handle(tc, req)
	} else {
		resp, frags, err = transport.CallCtx(p.caller, addr, tc, req)
	}
	sp.GraftFragments(frags)
	return resp, err
}

// callOwner sends req to the resolved owner of bucket id. When the owner
// became unreachable between resolution and the call (it crashed, or the
// lookup raced a churn event) and the node is fault tolerant, the owner
// is marked suspect and the bucket re-resolved once: responsibility for
// its arc has passed to the next live successor, which — with replication
// enabled — already holds a copy of its descriptors. Returns the ref that
// actually answered; the re-resolution is recorded on sp.
func (p *Peer) callOwner(id uint32, owner chord.Ref, req any, sp *trace.Span) (chord.Ref, any, error) {
	resp, err := p.callCtx(owner.Addr, req, sp)
	if err == nil || !p.node.FaultTolerant() || !transport.Retryable(err) {
		return owner, resp, err
	}
	p.node.MarkSuspect(owner.ID)
	if sp.On() {
		sp.Eventf("owner-dead", "%s unreachable, re-resolving %08x", owner, id)
	}
	// Fresh tables (nil memo): the operation's remembered ones may still
	// name the dead owner.
	next, _, lerr := p.node.Lookup(id, nil, sp)
	if lerr != nil || next.ID == owner.ID {
		return owner, nil, err
	}
	resp, err = p.callCtx(next.Addr, req, sp)
	return next, resp, err
}

// --- Local partition data (the holder side of data fetches) ---

// AddPartition materializes partition data at this peer so it can serve
// FetchData requests for it.
func (p *Peer) AddPartition(part *relation.Partition) {
	key := store.Partition{
		Relation: part.Relation, Attribute: part.Attribute, Range: part.Range,
	}.Key()
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, exists := p.data[key]; !exists {
		metPartitions.Add(1)
	}
	p.data[key] = part
}

// localPartition returns the materialized partition, if held.
func (p *Peer) localPartition(rel, attribute string, rg rangeset.Range) (*relation.Partition, bool) {
	key := store.Partition{Relation: rel, Attribute: attribute, Range: rg}.Key()
	p.mu.RLock()
	defer p.mu.RUnlock()
	part, ok := p.data[key]
	return part, ok
}

// PartitionCount returns how many materialized partitions the peer holds.
func (p *Peer) PartitionCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.data)
}

// FetchData retrieves the tuples of a matched partition from its holder,
// grafting the holder's serve span under sp (which may be nil) so the
// data transfer is attributed to the peer that performed it.
func (p *Peer) FetchData(m store.Match, sp *trace.Span) (*relation.Relation, error) {
	metFetches.Inc()
	if p.cfg.Schema == nil {
		return nil, errors.New("peer: no schema configured")
	}
	resp, err := p.callCtx(m.Partition.Holder, FetchDataReq{
		Relation:  m.Partition.Relation,
		Attribute: m.Partition.Attribute,
		Range:     m.Partition.Range,
	}, sp)
	if err != nil {
		return nil, err
	}
	fd, ok := resp.(FetchDataResp)
	if !ok {
		return nil, transport.BadRequest(resp)
	}
	if !fd.Found {
		return nil, fmt.Errorf("peer: holder %s no longer has %s", m.Partition.Holder, m.Partition)
	}
	rs, ok := p.cfg.Schema.Relation(fd.Data.Relation)
	if !ok {
		return nil, fmt.Errorf("peer: unknown relation %q in fetched data", fd.Data.Relation)
	}
	return &relation.Relation{Schema: rs, Tuples: fd.Data.Tuples}, nil
}
