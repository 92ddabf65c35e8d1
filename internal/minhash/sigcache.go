package minhash

import (
	"container/list"

	"p2prange/internal/rangeset"
)

// sigLRU is a bounded least-recently-used cache of identifiers keyed by
// their exact range (rangeset.Range is comparable, so it keys the map
// directly).
//
// sigLRU is not synchronized; the Signer serializes access.
type sigLRU struct {
	cap   int
	items map[rangeset.Range]*list.Element
	order *list.List // front = most recently used; values are *sigEntry
}

// sigEntry is one cached range and its l identifiers.
type sigEntry struct {
	rng rangeset.Range
	ids []ID
}

func newSigLRU(capacity int) *sigLRU {
	return &sigLRU{
		cap:   capacity,
		items: make(map[rangeset.Range]*list.Element, capacity),
		order: list.New(),
	}
}

// get returns the identifiers cached for exactly q, refreshing their
// recency.
func (c *sigLRU) get(q rangeset.Range) ([]ID, bool) {
	el, ok := c.items[q]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*sigEntry).ids, true
}

// put inserts (or refreshes) the identifiers of q and returns how many
// entries were evicted to respect the capacity bound.
func (c *sigLRU) put(q rangeset.Range, ids []ID) int {
	if el, ok := c.items[q]; ok {
		el.Value.(*sigEntry).ids = ids
		c.order.MoveToFront(el)
		return 0
	}
	c.items[q] = c.order.PushFront(&sigEntry{rng: q, ids: ids})
	evicted := 0
	for c.order.Len() > c.cap {
		el := c.order.Back()
		delete(c.items, el.Value.(*sigEntry).rng)
		c.order.Remove(el)
		evicted++
	}
	return evicted
}
