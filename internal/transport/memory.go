package transport

import (
	"fmt"
	"sync"

	"p2prange/internal/trace"
)

// Memory is an in-process network: a registry of handlers keyed by
// address. Calls are direct function invocations, which makes simulations
// of thousands of peers cheap while exercising the same protocol code as
// the TCP transport. Memory also supports fault injection (partitioning
// an address off) for failure tests.
type Memory struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	down     map[string]bool
	calls    uint64 // total successful dispatches, for tests/metrics
}

// NewMemory returns an empty in-memory network.
func NewMemory() *Memory {
	return &Memory{
		handlers: make(map[string]Handler),
		down:     make(map[string]bool),
	}
}

// Register attaches a handler at addr, replacing any previous one.
func (m *Memory) Register(addr string, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[addr] = h
}

// Unregister removes the handler at addr (the node leaves the network).
func (m *Memory) Unregister(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.handlers, addr)
	delete(m.down, addr)
}

// SetDown marks addr unreachable (fault injection) without removing its
// state, and SetDown(addr, false) heals it.
func (m *Memory) SetDown(addr string, down bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.down[addr] = down
}

// Calls returns the number of successful dispatches so far.
func (m *Memory) Calls() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.calls
}

// CallCtx implements Caller: the handler runs in the caller's goroutine,
// with the context passed straight through and the handler's fragment
// bytes returned as they are — the same bytes TCP carries.
func (m *Memory) CallCtx(addr string, tc trace.Context, req any) (any, []byte, error) {
	metCalls.Inc()
	m.mu.RLock()
	h, ok := m.handlers[addr]
	down := m.down[addr]
	m.mu.RUnlock()
	if !ok || down {
		metErrors.Inc()
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownAddr, addr)
	}
	m.mu.Lock()
	m.calls++
	m.mu.Unlock()
	return h(tc, req)
}

var _ Caller = (*Memory)(nil)
