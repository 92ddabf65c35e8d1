package transport

import (
	"math/rand"
	"sync"
	"time"

	"p2prange/internal/trace"
)

// FaultConfig parameterizes deterministic fault injection. All
// probabilities are in [0, 1]; the seeded generator makes a given
// workload's failure pattern reproducible across runs.
type FaultConfig struct {
	// Seed drives the injection decisions; 0 seeds from 1.
	Seed int64
	// Drop is the probability a request is lost before reaching the
	// remote node (surfaces as an ErrNetwork failure, handler never runs).
	Drop float64
	// Fail is the probability the response is lost after the handler ran
	// — the ambiguous failure mode retries must tolerate.
	Fail float64
	// DelayProb is the probability a call is delayed by Delay.
	DelayProb float64
	// Delay is the injected latency for delayed calls.
	Delay time.Duration
}

// FaultCaller wraps any Caller — the in-memory simulator network or the
// TCP client — with seeded, deterministic fault injection: dropped
// requests, lost responses, added latency, and per-address kill switches.
// Injected failures are ErrNetwork-classified, so retry and rerouting
// layers treat them exactly like real network faults.
type FaultCaller struct {
	inner Caller
	cfg   FaultConfig

	mu       sync.Mutex
	rng      *rand.Rand
	down     map[string]bool
	injected uint64
}

// NewFaultCaller wraps inner with the given fault model.
func NewFaultCaller(inner Caller, cfg FaultConfig) *FaultCaller {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &FaultCaller{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		down:  make(map[string]bool),
	}
}

// SetDown marks addr unreachable (every call fails with ErrNetwork)
// until healed with SetDown(addr, false). This is the transport-agnostic
// analogue of Memory.SetDown, usable over TCP.
func (f *FaultCaller) SetDown(addr string, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if down {
		f.down[addr] = true
	} else {
		delete(f.down, addr)
	}
}

// Injected returns how many failures have been injected so far.
func (f *FaultCaller) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// decide draws this call's injected faults from the seeded generator and
// applies any injected delay. A non-nil error means the request is lost
// before the inner caller runs; fail means the response must be lost
// after it.
func (f *FaultCaller) decide(addr string) (fail bool, err error) {
	f.mu.Lock()
	if f.down[addr] {
		f.injected++
		f.mu.Unlock()
		return false, netErrf("transport: injected outage at %s", addr)
	}
	drop := f.cfg.Drop > 0 && f.rng.Float64() < f.cfg.Drop
	fail = f.cfg.Fail > 0 && f.rng.Float64() < f.cfg.Fail
	delay := f.cfg.DelayProb > 0 && f.rng.Float64() < f.cfg.DelayProb
	if drop || fail {
		f.injected++
	}
	f.mu.Unlock()

	if delay && f.cfg.Delay > 0 {
		time.Sleep(f.cfg.Delay)
	}
	if drop {
		return false, netErrf("transport: injected request drop to %s", addr)
	}
	return fail, nil
}

// CallCtx implements Caller with fault injection around the wrapped
// caller. An injected response loss also discards the remote span
// fragments — just as a real lost response would.
func (f *FaultCaller) CallCtx(addr string, tc trace.Context, req any) (any, []byte, error) {
	fail, err := f.decide(addr)
	if err != nil {
		return nil, nil, err
	}
	resp, frags, err := f.inner.CallCtx(addr, tc, req)
	if fail && err == nil {
		return nil, nil, netErrf("transport: injected response loss from %s", addr)
	}
	return resp, frags, err
}

var _ Caller = (*FaultCaller)(nil)
