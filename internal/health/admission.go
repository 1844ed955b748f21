package health

import (
	"sync"
	"time"
)

// Signals is a snapshot of the live tier pressure an admission gate and
// the health score read: the ingress queue depth (bounded Loopback
// queue or HTTP accept backlog), the deepest outbox delivery lane, and
// the per-update enclave decrypt latency in microseconds. That latency is
// the LIFETIME mean (the mixnn_decrypt_us histogram's), not a recent
// one: a key agreement falling back onto the per-update path moves it
// quickly on a young tier and ever more slowly as the tier ages.
type Signals struct {
	QueueDepth    int
	LaneBacklog   int
	DecryptMicros float64
}

// AdmissionConfig tunes the gate. The zero value admits everything:
// RatePerSec 0 disables rate limiting and ShedQueueDepth 0 disables
// load shedding — so existing deployments are unchanged until an
// operator opts in.
type AdmissionConfig struct {
	// RatePerSec is the sustained per-sender update rate; Burst is the
	// bucket capacity (defaults to max(1, RatePerSec) when unset).
	RatePerSec float64
	Burst      float64

	// ShedQueueDepth is the shed threshold: ingress is refused (for
	// everyone, regardless of per-sender budget) while the ingress queue
	// depth signal is at or above it.
	ShedQueueDepth int

	// MaxSenders bounds the per-sender bucket map; at the bound the
	// stalest bucket is evicted. Defaults to DefaultMaxSenders.
	MaxSenders int

	// now overrides the clock in tests.
	now func() time.Time
}

// DefaultMaxSenders bounds the admission controller's per-sender state.
const DefaultMaxSenders = 1 << 16

// Admission is the ingress gate: a per-sender token bucket plus a
// load-shedding check over the latest Signals snapshot. Safe for
// concurrent use.
type Admission struct {
	cfg AdmissionConfig

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewAdmission builds a gate from cfg. A nil-equivalent (zero) config
// yields a gate that admits everything at zero cost per call.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.RatePerSec > 0 && cfg.Burst <= 0 {
		cfg.Burst = cfg.RatePerSec
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if cfg.MaxSenders <= 0 {
		cfg.MaxSenders = DefaultMaxSenders
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	return &Admission{cfg: cfg, buckets: make(map[string]*bucket)}
}

// Enabled reports whether any admission mechanism is configured; a
// fully-disabled gate lets callers skip signal snapshotting entirely.
func (a *Admission) Enabled() bool {
	return a != nil && (a.cfg.RatePerSec > 0 || a.cfg.ShedQueueDepth > 0)
}

// Shedding reports whether the gate is refusing all ingress under sig.
func (a *Admission) Shedding(sig Signals) bool {
	return a != nil && a.cfg.ShedQueueDepth > 0 && sig.QueueDepth >= a.cfg.ShedQueueDepth
}

// Allow decides one ingress attempt by sender under the signal
// snapshot. On refusal it returns shed=true when the whole tier is
// load-shedding (vs. this sender being over its own budget) and a
// retryAfter hint: how long until the sender's bucket refills one
// token, or a fixed shed-side hint. Callers surface the hint as a
// Retry-After so well-behaved SDKs back off instead of hammering.
func (a *Admission) Allow(sender string, sig Signals) (ok bool, shed bool, retryAfter time.Duration) {
	if a == nil {
		return true, false, 0
	}
	if a.Shedding(sig) {
		// Shedding is about aggregate pressure, not this sender; the
		// hint is a coarse "come back soon" — queue drain time is not
		// predictable from here.
		return false, true, shedRetryHint
	}
	if a.cfg.RatePerSec <= 0 {
		return true, false, 0
	}

	now := a.cfg.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b, okB := a.buckets[sender]
	if !okB {
		if len(a.buckets) >= a.cfg.MaxSenders {
			a.evictStalest()
		}
		b = &bucket{tokens: a.cfg.Burst, last: now}
		a.buckets[sender] = b
	} else {
		dt := now.Sub(b.last).Seconds()
		if dt > 0 {
			b.tokens += dt * a.cfg.RatePerSec
			if b.tokens > a.cfg.Burst {
				b.tokens = a.cfg.Burst
			}
			b.last = now
		}
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, false, 0
	}
	need := (1 - b.tokens) / a.cfg.RatePerSec
	return false, false, time.Duration(need * float64(time.Second))
}

// shedRetryHint is the Retry-After offered while load-shedding.
const shedRetryHint = 1 * time.Second

// evictStalest drops the bucket touched longest ago. Called with a.mu
// held. Evicting a sender resets it to a full burst on return — an
// acceptable leniency; the bound exists to cap memory, not to make the
// limiter adversarially exact.
func (a *Admission) evictStalest() {
	var (
		stalest string
		oldest  time.Time
		first   = true
	)
	for s, b := range a.buckets {
		if first || b.last.Before(oldest) {
			stalest, oldest, first = s, b.last, false
		}
	}
	if !first {
		delete(a.buckets, stalest)
	}
}

// Senders reports how many per-sender buckets are live (observability).
func (a *Admission) Senders() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.buckets)
}
