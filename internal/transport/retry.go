package transport

import (
	"math/rand"
	"sync"
	"time"

	"p2prange/internal/metrics"
	"p2prange/internal/trace"
)

// RetryConfig parameterizes a RetryCaller.
type RetryConfig struct {
	// Attempts is the total number of tries per call (default 3).
	Attempts int
	// BaseDelay is the pause before the first retry; it doubles on each
	// subsequent retry up to 1s, with ±50% jitter. Zero means no pause —
	// appropriate for in-memory simulations; live deployments should set
	// a small delay so the ring has time to repair.
	BaseDelay time.Duration
	// Seed makes the jitter deterministic; 0 seeds from 1.
	Seed int64
}

// maxRetryDelay caps the exponential backoff.
const maxRetryDelay = time.Second

// metRetries counts retry attempts process-wide: route.retries in the
// Default registry, beside chord's route.* lookup counters.
var metRetries = metrics.Default.Counter("route.retries")

// RetryCaller wraps a Caller with bounded retries and exponential
// backoff plus jitter. Only transport-level failures (see Retryable) are
// retried: every request in this system is idempotent at the protocol
// level, but a handler error is a definitive answer from a live node and
// retrying it cannot help. Safe for concurrent use.
type RetryCaller struct {
	inner Caller
	cfg   RetryConfig

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetryCaller wraps inner with the given retry policy.
func NewRetryCaller(inner Caller, cfg RetryConfig) *RetryCaller {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &RetryCaller{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// CallCtx implements Caller: forward to the wrapped caller, retrying
// transport-level failures up to Attempts times. Each attempt re-sends
// the same context; the fragments of the attempt that succeeds are the
// ones returned, so a retried call never grafts a failed attempt's
// partial subtree twice.
func (r *RetryCaller) CallCtx(addr string, tc trace.Context, req any) (any, []byte, error) {
	var (
		resp  any
		frags []byte
	)
	err := r.retry(func() error {
		var e error
		resp, frags, e = r.inner.CallCtx(addr, tc, req)
		return e
	})
	if err != nil && Retryable(err) {
		return nil, nil, err // all attempts failed in transit
	}
	return resp, frags, err
}

// retry runs do with the configured attempt and backoff policy. It
// returns nil when an attempt succeeds or the first non-retryable error;
// the attempt's own results are captured by the closure. A failed run
// returns the last retryable error.
func (r *RetryCaller) retry(do func() error) error {
	delay := r.cfg.BaseDelay
	var lastErr error
	for attempt := 0; attempt < r.cfg.Attempts; attempt++ {
		if attempt > 0 {
			metRetries.Inc()
			if delay > 0 {
				time.Sleep(r.jitter(delay))
				delay *= 2
				if delay > maxRetryDelay {
					delay = maxRetryDelay
				}
			}
		}
		err := do()
		if err == nil || !Retryable(err) {
			return err
		}
		lastErr = err
	}
	return lastErr
}

// jitter spreads d over [d/2, 3d/2) so synchronized failures do not
// produce synchronized retry storms.
func (r *RetryCaller) jitter(d time.Duration) time.Duration {
	r.mu.Lock()
	f := 0.5 + r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(d) * f)
}

var _ Caller = (*RetryCaller)(nil)
