package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"p2prange"
	"p2prange/internal/minhash"
	"p2prange/internal/query"
	"p2prange/internal/rangeset"
	"p2prange/internal/relation"
	"p2prange/internal/store"
	"p2prange/internal/transport"
	"p2prange/internal/workload"
)

// Every lookup and publish names the same relation attribute; the medical
// schema's Patient.age is the one the SQL workload selects on.
const (
	relName  = "Patient"
	attrName = "age"
)

// inputs is everything a workload derives from the seed before the first
// ring boots. Every round of one invocation replays the same inputs.
type inputs struct {
	seed       int64
	schemeSeed int64
	addrs      []string
	clients    [][]op           // one fixed sequence per closed-loop client
	warm       []rangeset.Range // read-only warm-up lookups
	seeds      []rangeset.Range // descriptors published during set-up

	// expect holds, per client operation, the best score a correct lookup
	// returns, 0 for a miss (lookup_route only).
	expect [][]float64

	// SQL catalog: query text and the digest of its reference rows.
	base    map[string]*relation.Relation
	catalog []string
	want    []uint64

	// signTotal is the benchmark's own timing of Signer.Identifiers over
	// every operation's range; signRoots covers only the operations whose
	// roots the traced run folds (lookups and queries).
	signTotal, signRoots time.Duration
}

func (in *inputs) ops() int {
	n := 0
	for _, c := range in.clients {
		n += len(c)
	}
	return n
}

// scenario is one named benchmark scenario.
type scenario struct {
	name  string
	peers int
	// rate sizes each client's fixed sequence from --seconds: a round runs
	// rate*seconds/rounds operations in total. It is a constant, so the
	// operation count depends only on the arguments, never on the speed
	// of the machine or the commit.
	rate    float64
	prepare func(in *inputs, perClient int) error
	config  func(in *inputs, dir string) p2prange.LiveConfig
	seed    func(peers []*p2prange.LivePeer, in *inputs) error
	exec    func(p *p2prange.LivePeer, in *inputs, o op, traced bool, out *outcome, f *fold)
	check   func(peers []*p2prange.LivePeer, in *inputs, r *roundResult) (int, error)
}

var scenarios = []*scenario{lookupRoute, durableMix, sqlCache}

func findWorkload(name string) (*scenario, error) {
	for _, w := range scenarios {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// peerdDefaults is the configuration peerd ships by default: approximate
// min-wise hashing with k=20, l=5, a 256-entry signature cache, the binary
// codec, three transport attempts, the flight recorder on and the default
// chord maintenance cadence.
func peerdDefaults(in *inputs) p2prange.LiveConfig {
	return p2prange.LiveConfig{
		Family:     p2prange.ApproxMinWise,
		K:          20,
		L:          5,
		SchemeSeed: in.schemeSeed,
		Schema:     relation.MedicalSchema(),
		Retry:      transport.RetryConfig{Attempts: 3},
		SigCache:   256,
		Codec:      transport.CodecBinary,
	}
}

// newSigner builds a signer the way every peer builds its own.
func newSigner(in *inputs) (*minhash.Signer, error) {
	sch, err := minhash.NewScheme(minhash.ApproxMinWise, 20, 5, rand.New(rand.NewSource(in.schemeSeed)))
	if err != nil {
		return nil, err
	}
	return minhash.NewSigner(sch.Compiled(), minhash.WithSigCache(256)), nil
}

// timeSigning times Signer.Identifiers on every operation's range, in
// client order, and returns the identifiers of lookup ranges.
func timeSigning(in *inputs) ([][][]minhash.ID, error) {
	sg, err := newSigner(in)
	if err != nil {
		return nil, err
	}
	ids := make([][][]minhash.ID, len(in.clients))
	in.signTotal, in.signRoots = 0, 0
	for c, seq := range in.clients {
		ids[c] = make([][]minhash.ID, len(seq))
		for i, o := range seq {
			t := time.Now()
			ids[c][i] = sg.Identifiers(o.rg)
			d := time.Since(t)
			in.signTotal += d
			if o.kind != opPublish {
				in.signRoots += d
			}
		}
	}
	return ids, nil
}

// origin rotates the querying peer across the ring.
func origin(client, i, peers int) int { return (i*clients + client) % peers }

// narrowRange draws a range of width 5-15 inside [0, 1000] with an even
// lower bound. Measured publishes take the odd lower bounds (see
// publishRanges), so no other operation stores a range a publish stores.
func narrowRange(rng *rand.Rand) rangeset.Range {
	w := 5 + rng.Int63n(11)
	lo := 2 * rng.Int63n((workload.DefaultDomainHi-w+1)/2+1)
	return rangeset.Range{Lo: lo, Hi: lo + w - 1}
}

// publishRanges is every range of width 5-15 inside [0, 1000] with an odd
// lower bound, in seeded order. Publishes take them in turn, so each
// acknowledged publish is the only descriptor of its range (until the
// 5,000-odd ranges run out and the order repeats).
func publishRanges(rng *rand.Rand) []rangeset.Range {
	var rs []rangeset.Range
	for w := int64(5); w <= 15; w++ {
		for lo := int64(1); lo+w-1 <= workload.DefaultDomainHi; lo += 2 {
			rs = append(rs, rangeset.Range{Lo: lo, Hi: lo + w - 1})
		}
	}
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	return rs
}

// publishAll publishes the seed descriptors from rotating origins, from
// as many goroutines as there are clients. The stored set is the same
// whatever the interleaving.
func publishAll(peers []*p2prange.LivePeer, ranges []rangeset.Range) error {
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			for i := c; i < len(ranges); i += clients {
				p := peers[i%len(peers)]
				if err := p.Publish(p.Descriptor(relName, attrName, ranges[i])); err != nil {
					errs <- fmt.Errorf("publish %s: %w", ranges[i], err)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// execLookup runs one lookup and records its outcome; a traced lookup's
// span tree is folded outside the timed call.
func execLookup(p *p2prange.LivePeer, o op, cache, traced bool, out *outcome, f *fold) {
	var (
		m     p2prange.Match
		found bool
		tr    *p2prange.Trace
		err   error
	)
	t := time.Now()
	if traced {
		m, found, tr, err = p.LookupTraced(relName, attrName, o.rg, cache)
	} else {
		m, found, err = p.LookupOnce(relName, attrName, o.rg, cache)
	}
	out.latency = time.Since(t)
	if err != nil {
		out.failed = true
		return
	}
	out.found, out.score = found, m.Score
	if found {
		out.recall = o.rg.Containment(m.Partition.Range)
	}
	if traced {
		f.add(tr.Export())
	}
}

func execPublish(p *p2prange.LivePeer, o op, out *outcome) {
	t := time.Now()
	err := p.Publish(p.Descriptor(relName, attrName, o.rg))
	out.latency = time.Since(t)
	out.failed = err != nil
}

// lookupRoute: the read path at full width on a ring larger than the
// successor list, over a store that never changes.
var lookupRoute = &scenario{
	name:  "lookup_route",
	peers: 16,
	rate:  3600,
	prepare: func(in *inputs, perClient int) error {
		u := workload.NewUniform(workload.DefaultDomainLo, workload.DefaultDomainHi, in.seed)
		in.seeds = workload.Take(u, 600)
		in.warm = workload.Take(u, 4*16)
		for c := 0; c < clients; c++ {
			seq := make([]op, perClient)
			for i := range seq {
				seq[i] = op{kind: opLookup, origin: origin(c, i, 16), rg: u.Next()}
			}
			in.clients = append(in.clients, seq)
		}
		ids, err := timeSigning(in)
		if err != nil {
			return err
		}
		return expectBest(in, ids)
	},
	config: func(in *inputs, _ string) p2prange.LiveConfig { return peerdDefaults(in) },
	seed: func(peers []*p2prange.LivePeer, in *inputs) error {
		return publishAll(peers, in.seeds)
	},
	exec: func(p *p2prange.LivePeer, _ *inputs, o op, traced bool, out *outcome, f *fold) {
		execLookup(p, o, false, traced, out, f)
	},
	check: func(_ []*p2prange.LivePeer, in *inputs, r *roundResult) (int, error) {
		bad := 0
		for c, outs := range r.outcomes {
			for i, o := range outs {
				want := in.expect[c][i]
				if !o.failed && (o.found != (want > 0) || o.score != want) {
					bad++
				}
			}
		}
		return bad, nil
	},
}

// expectBest computes, offline, the best score each lookup must return:
// the seeded descriptors that share an identifier with the query are its
// candidates, scored with the ring's measure (Jaccard).
func expectBest(in *inputs, queryIDs [][][]minhash.ID) error {
	sg, err := newSigner(in)
	if err != nil {
		return err
	}
	buckets := make(map[minhash.ID][]int)
	for d, rg := range in.seeds {
		for _, id := range sg.Identifiers(rg) {
			buckets[id] = append(buckets[id], d)
		}
	}
	in.expect = make([][]float64, len(in.clients))
	for c, seq := range in.clients {
		in.expect[c] = make([]float64, len(seq))
		for i, o := range seq {
			best := 0.0
			for _, id := range queryIDs[c][i] {
				for _, d := range buckets[id] {
					if s := store.MatchJaccard.Score(o.rg, in.seeds[d]); s > best {
						best = s
					}
				}
			}
			in.expect[c][i] = best
		}
	}
	return nil
}

// durableMix: the write path and the disk read path on a durable,
// capped, replicated ring.
var durableMix = &scenario{
	name:  "durable_mix",
	peers: 8,
	rate:  600,
	prepare: func(in *inputs, perClient int) error {
		rng := rand.New(rand.NewSource(in.seed))
		for i := 0; i < 3000; i++ {
			in.seeds = append(in.seeds, narrowRange(rng))
		}
		for i := 0; i < 4*8; i++ {
			in.warm = append(in.warm, narrowRange(rng))
		}
		pub, next := publishRanges(rng), 0
		for c := 0; c < clients; c++ {
			seq := make([]op, perClient)
			for i := range seq {
				seq[i] = op{kind: opLookup, origin: origin(c, i, 8), rg: narrowRange(rng)}
				if rng.Float64() < 0.3 {
					seq[i].kind, seq[i].rg = opPublish, pub[next%len(pub)]
					next++
				}
			}
			in.clients = append(in.clients, seq)
		}
		_, err := timeSigning(in)
		return err
	},
	config: func(in *inputs, dir string) p2prange.LiveConfig {
		cfg := peerdDefaults(in)
		cfg.DataDir = dir
		// Writes go to the page cache, not through fsync. On the shared
		// virtual disk this was tuned on, fsync latency swings two- to
		// threefold over tens of seconds, which moved throughput and read
		// latency by 20-35% between runs of the same code. The journal,
		// group commit, folds, segment reads and replica push all still run.
		cfg.Fsync = "off"
		cfg.Replicas = 2
		cfg.LoadAware = true
		cfg.MemLimit = 400
		cfg.CompactEvery = 600
		// Teardown closes peers one by one, and Close waits for an
		// in-flight anti-entropy round that may be pushing hundreds of
		// descriptors to successors already closed; at the default 25ms
		// retry backoff that wait can outlast the run. Nothing is retried
		// while measuring (a transport error there counts as a failure, see
		// tally), so a short backoff changes only the teardown.
		cfg.Retry.BaseDelay = 100 * time.Microsecond
		return cfg
	},
	seed: func(peers []*p2prange.LivePeer, in *inputs) error {
		// A fixed first batch, then more chunks only until every peer has
		// folded its log once, so the measured phase starts with segments
		// to read through.
		const first, chunk = 1500, 100
		if err := publishAll(peers, in.seeds[:first]); err != nil {
			return err
		}
		for i := first; !allFolded(peers); i += chunk {
			if i >= len(in.seeds) {
				return fmt.Errorf("not every peer folded its log after %d publishes", i)
			}
			if err := publishAll(peers, in.seeds[i:i+chunk]); err != nil {
				return err
			}
		}
		return nil
	},
	exec: func(p *p2prange.LivePeer, _ *inputs, o op, traced bool, out *outcome, f *fold) {
		if o.kind == opPublish {
			execPublish(p, o, out)
			return
		}
		execLookup(p, o, true, traced, out, f)
	},
	check: func(peers []*p2prange.LivePeer, in *inputs, r *roundResult) (int, error) {
		// An untimed sweep: a seeded sample of acknowledged publishes must
		// still be found by exact lookup. Only the publish itself (or its
		// replica) stores its range, so nothing else can answer for it.
		var acked []rangeset.Range
		for c, outs := range r.outcomes {
			for i, o := range outs {
				if r.ops[c][i].kind == opPublish && !o.failed {
					acked = append(acked, r.ops[c][i].rg)
				}
			}
		}
		rng := rand.New(rand.NewSource(in.seed))
		rng.Shuffle(len(acked), func(i, j int) { acked[i], acked[j] = acked[j], acked[i] })
		bad := 0
		for i, rg := range acked[:min(100, len(acked))] {
			m, found, err := peers[i%len(peers)].LookupOnce(relName, attrName, rg, false)
			if err != nil || !found || m.Partition.Range != rg {
				bad++
			}
		}
		return bad, nil
	},
}

func allFolded(peers []*p2prange.LivePeer) bool {
	for _, p := range peers {
		if st, ok := p.Durable(); !ok || st.SegmentSeq == 0 {
			return false
		}
	}
	return true
}

// sqlCache: parse, plan and execute SQL over a ring whose cache warms as
// Zipf-popular age ranges repeat.
var sqlCache = &scenario{
	name:  "sql_cache",
	peers: 8,
	rate:  2200,
	prepare: func(in *inputs, perClient int) error {
		rels, err := relation.GenerateMedical(relation.MedicalConfig{Patients: 1500, Physicians: 50, Diagnoses: 1500, Seed: in.seed})
		if err != nil {
			return err
		}
		in.base = rels
		rng := rand.New(rand.NewSource(in.seed))
		const ranges = 40
		ages := make([]rangeset.Range, ranges)
		for i := range ages {
			// Widths cycle with popularity rank, so whichever ages a seed
			// makes popular, the popular queries select as many of them.
			w := 3 + int64(i*7)%18
			lo := 1 + rng.Int63n(99-w+1)
			ages[i] = rangeset.Range{Lo: lo, Hi: lo + w - 1}
			in.catalog = append(in.catalog,
				fmt.Sprintf("SELECT * FROM Patient WHERE %d <= age AND age <= %d", ages[i].Lo, ages[i].Hi),
				fmt.Sprintf("SELECT Patient.name, Diagnosis.diagnosis FROM Patient, Diagnosis WHERE %d <= age AND age <= %d AND Patient.patient_id = Diagnosis.patient_id", ages[i].Lo, ages[i].Hi))
		}
		for i := 0; i < 4*8; i++ {
			in.warm = append(in.warm, ages[rng.Intn(ranges)])
		}
		zipf := rand.NewZipf(rng, 1.1, 1, ranges-1)
		for c := 0; c < clients; c++ {
			seq := make([]op, perClient)
			for i := range seq {
				a := int(zipf.Uint64())
				q := 2 * a
				if rng.Float64() < 0.3 {
					q++ // join
				}
				seq[i] = op{kind: opQuery, origin: origin(c, i, 8), rg: ages[a], query: q}
			}
			in.clients = append(in.clients, seq)
		}
		schema := relation.MedicalSchema()
		src := query.NewRelationSource(rels)
		for _, sql := range in.catalog {
			q, err := query.Parse(sql)
			if err != nil {
				return err
			}
			plan, err := query.BuildPlan(q, schema)
			if err != nil {
				return err
			}
			res, err := query.Execute(plan, schema, src)
			if err != nil {
				return fmt.Errorf("reference %q: %w", sql, err)
			}
			in.want = append(in.want, digestRows(res.Rows))
		}
		_, err = timeSigning(in)
		return err
	},
	config: func(in *inputs, _ string) p2prange.LiveConfig { return peerdDefaults(in) },
	seed: func(peers []*p2prange.LivePeer, in *inputs) error {
		names := make([]string, 0, len(in.base))
		for name := range in.base {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, p := range peers {
			for _, name := range names {
				if err := p.AddBase(in.base[name]); err != nil {
					return err
				}
			}
		}
		return nil
	},
	exec: func(p *p2prange.LivePeer, in *inputs, o op, traced bool, out *outcome, f *fold) {
		var (
			res *p2prange.QueryResult
			tr  *p2prange.Trace
			err error
		)
		t := time.Now()
		if traced {
			res, tr, err = p.QueryTraced(in.catalog[o.query])
		} else {
			res, err = p.Query(in.catalog[o.query])
		}
		out.latency = time.Since(t)
		if err != nil {
			out.failed = true
			return
		}
		out.digest = digestRows(res.Rows)
		for _, rc := range res.ScanRecall {
			out.recall += rc / float64(len(res.ScanRecall))
		}
		if traced {
			f.add(tr.Export())
		}
	},
	check: func(_ []*p2prange.LivePeer, in *inputs, r *roundResult) (int, error) {
		bad := 0
		for c, outs := range r.outcomes {
			for i, o := range outs {
				if !o.failed && o.digest != in.want[r.ops[c][i].query] {
					bad++
				}
			}
		}
		return bad, nil
	},
}

// digestRows is an order-independent digest of result rows (FNV-1a per
// row, mixed and summed), so a result can be checked against the
// reference execution without keeping either.
func digestRows(rows []relation.Tuple) uint64 {
	var sum uint64
	for _, t := range rows {
		h := uint64(14695981039346656037)
		add := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
		for _, v := range t {
			add(byte(v.Kind))
			for s := 0; s < 64; s += 8 {
				add(byte(v.Int >> s))
			}
			for i := 0; i < len(v.Str); i++ {
				add(v.Str[i])
			}
			add(0xff)
		}
		sum += mix(h)
	}
	return sum ^ mix(uint64(len(rows)))
}
