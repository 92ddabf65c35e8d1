package replica

import (
	"sort"

	"p2prange/internal/chord"
	"p2prange/internal/store"
	"p2prange/internal/transport"
)

// Binary codecs for the replica protocol, in the peer package's unboxed
// append/parse style. LoadReq/LoadResp cross the wire once per member of
// a load-aware lookup's replica sets (Manager.Rank), so their round trip
// decodes into reused destinations without allocating
// (BenchmarkCodecLoad, enforced by `make benchguard`). Maps
// encode in ascending key order; descriptor keys decode uninterned,
// since they are bulk data, not repeating names.
const (
	tagSyncReq  = transport.TagReplicaBase + 0
	tagSyncResp = transport.TagReplicaBase + 1
	tagLoadReq  = transport.TagReplicaBase + 2
	tagLoadResp = transport.TagReplicaBase + 3
)

func appendDigest(b []byte, d store.Digest) []byte {
	b = transport.AppendUvarint(b, uint64(len(d)))
	for _, id := range transport.SortedIDs(d) {
		vv := d[id]
		keys := make([]string, 0, len(vv))
		for k := range vv {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b = transport.AppendUvarint(b, uint64(id))
		b = transport.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = transport.AppendString(b, k)
			b = transport.AppendUvarint(b, vv[k])
		}
	}
	return b
}

// parseDigest decodes appendDigest's encoding. An empty digest decodes
// as nil; a bucket with no entries as an empty (non-nil) map.
func parseDigest(c *transport.Cursor) store.Digest {
	n := c.Count()
	if c.Err != nil || n == 0 {
		return nil
	}
	d := make(store.Digest, transport.PreallocHint(n))
	for i := uint64(0); i < n && c.Err == nil; i++ {
		id := uint32(c.Uvarint())
		k := c.Count()
		vv := make(map[string]uint64, transport.PreallocHint(k))
		for j := uint64(0); j < k && c.Err == nil; j++ {
			key := c.BulkString()
			vv[key] = c.Uvarint()
		}
		d[id] = vv
	}
	return d
}

func appendMissing(b []byte, m map[uint32][]string) []byte {
	b = transport.AppendUvarint(b, uint64(len(m)))
	for _, id := range transport.SortedIDs(m) {
		keys := m[id]
		b = transport.AppendUvarint(b, uint64(id))
		b = transport.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = transport.AppendString(b, k)
		}
	}
	return b
}

// parseMissing decodes appendMissing's encoding. An empty map decodes as
// nil, a bucket with no keys as an empty (non-nil) slice.
func parseMissing(c *transport.Cursor) map[uint32][]string {
	n := c.Count()
	if c.Err != nil || n == 0 {
		return nil
	}
	m := make(map[uint32][]string, transport.PreallocHint(n))
	for i := uint64(0); i < n && c.Err == nil; i++ {
		id := uint32(c.Uvarint())
		k := c.Count()
		keys := make([]string, 0, transport.PreallocHint(k))
		for j := uint64(0); j < k && c.Err == nil; j++ {
			keys = append(keys, c.BulkString())
		}
		m[id] = keys
	}
	return m
}

func appendLoadReq(b []byte, r *LoadReq) []byte {
	b = transport.AppendUvarint(b, uint64(len(r.IDs)))
	for _, id := range r.IDs {
		b = transport.AppendUvarint(b, uint64(id))
	}
	return b
}

// parseLoadReq decodes into r, reusing the capacity of r.IDs, so a
// caller that keeps r across frames decodes without allocating.
func parseLoadReq(c *transport.Cursor, r *LoadReq) error {
	r.IDs = r.IDs[:0]
	n := c.Count()
	if c.Err != nil {
		return c.Err
	}
	if n > uint64(cap(r.IDs)) {
		r.IDs = make([]uint32, 0, transport.PreallocHint(n))
	}
	for i := uint64(0); i < n && c.Err == nil; i++ {
		r.IDs = append(r.IDs, uint32(c.Uvarint()))
	}
	return c.Err
}

func appendLoadResp(b []byte, r *LoadResp) []byte {
	b = transport.AppendVarint(b, r.Load)
	b = transport.AppendUvarint(b, uint64(len(r.Fanouts)))
	for _, f := range r.Fanouts {
		b = transport.AppendVarint(b, int64(f))
	}
	b = transport.AppendUvarint(b, uint64(len(r.Successors)))
	for _, s := range r.Successors {
		b = transport.AppendUvarint(b, uint64(s.ID))
		b = transport.AppendString(b, s.Addr)
	}
	return b
}

// parseLoadResp decodes into r, reusing the capacity of r.Fanouts and
// r.Successors; successor addresses go through the cursor's interner,
// so a caller that keeps r across frames decodes without allocating.
func parseLoadResp(c *transport.Cursor, r *LoadResp) error {
	r.Load = c.Varint()
	r.Fanouts = r.Fanouts[:0]
	n := c.Count()
	if c.Err != nil {
		return c.Err
	}
	if n > uint64(cap(r.Fanouts)) {
		r.Fanouts = make([]int, 0, transport.PreallocHint(n))
	}
	for i := uint64(0); i < n && c.Err == nil; i++ {
		r.Fanouts = append(r.Fanouts, int(c.Varint()))
	}
	r.Successors = r.Successors[:0]
	n = c.Count()
	if c.Err != nil {
		return c.Err
	}
	if n > uint64(cap(r.Successors)) {
		r.Successors = make([]chord.Ref, 0, transport.PreallocHint(n))
	}
	for i := uint64(0); i < n && c.Err == nil; i++ {
		r.Successors = append(r.Successors, chord.Ref{ID: chord.ID(c.Uvarint()), Addr: c.String()})
	}
	return c.Err
}

func init() {
	transport.RegisterCodec(tagSyncReq, SyncReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { return appendDigest(b, v.(SyncReq).Digest) },
		func(c *transport.Cursor) (any, error) { return SyncReq{Digest: parseDigest(c)}, c.Err })
	transport.RegisterCodec(tagSyncResp, SyncResp{}, transport.DirResponse,
		func(b []byte, v any) []byte { return appendMissing(b, v.(SyncResp).Missing) },
		func(c *transport.Cursor) (any, error) { return SyncResp{Missing: parseMissing(c)}, c.Err })
	transport.RegisterCodec(tagLoadReq, LoadReq{}, transport.DirRequest,
		func(b []byte, v any) []byte { r := v.(LoadReq); return appendLoadReq(b, &r) },
		func(c *transport.Cursor) (any, error) { var r LoadReq; err := parseLoadReq(c, &r); return r, err })
	transport.RegisterCodec(tagLoadResp, LoadResp{}, transport.DirResponse,
		func(b []byte, v any) []byte { r := v.(LoadResp); return appendLoadResp(b, &r) },
		func(c *transport.Cursor) (any, error) { var r LoadResp; err := parseLoadResp(c, &r); return r, err })
}
