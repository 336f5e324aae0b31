package router

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Circuit breaker and retry budget: the router's two overload guards
// (docs/robustness.md). The breaker stops the router from hammering a
// replica that keeps failing — probe failures and forward errors trip
// it, a cooldown later it half-opens and trial traffic decides whether
// it closes again. The retry budget bounds the *aggregate* retry volume:
// retries amplify load exactly when the tier is least able to absorb it,
// so instead of a fixed per-request retry count multiplying under
// overload, a token bucket earns capacity from successful requests and
// every retry spends from it. When the bucket is empty the router fails
// fast with the same typed node_unavailable the caller would have
// gotten after futile retries — just sooner and cheaper.

// The fixed retry and breaker policy.
const (
	// retries caps re-forwards after a dial failure. Only dial errors
	// retry: the request never reached the replica, so a retry cannot
	// double-execute it. Mid-response failures do not.
	retries = 3
	// retryBudgetTokens caps the aggregate retry token bucket, and every
	// successful forward earns retryBudgetRatio tokens back: at most ~10%
	// of steady-state traffic can be retries.
	retryBudgetTokens = 10
	retryBudgetRatio  = 0.1
	// breakerThreshold is the count of consecutive forward failures that
	// trips a replica's breaker.
	breakerThreshold = 3
)

// breaker states.
const (
	breakerClosed   = iota // normal: traffic flows, failures counted
	breakerOpen            // tripped: replica excluded from routing
	breakerHalfOpen        // cooldown elapsed: trial traffic admitted
)

// breaker is one replica's circuit breaker.
type breaker struct {
	mu       sync.Mutex
	state    int
	failures int       // consecutive forward failures while closed
	openedAt time.Time // when the breaker last tripped

	cooldown time.Duration // open -> half-open delay
	now      func() time.Time
}

func newBreaker(cooldown time.Duration) *breaker {
	return &breaker{cooldown: cooldown, now: time.Now}
}

// allow reports whether traffic may flow to the replica. An open breaker
// whose cooldown has elapsed transitions to half-open and admits the
// request as a trial: its outcome (onSuccess / onFailure) decides
// whether the breaker closes or re-opens.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		return true
	default:
		return true
	}
}

// onSuccess books a successful forward: failures reset, and a half-open
// breaker closes (the trial passed).
func (b *breaker) onSuccess() {
	b.mu.Lock()
	b.failures = 0
	b.state = breakerClosed
	b.mu.Unlock()
}

// onFailure books a failed forward: a half-open trial failing re-opens
// immediately; a closed breaker trips after breakerThreshold consecutive
// failures.
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerOpen
		b.openedAt = b.now()
		return
	}
	b.failures++
	if b.state == breakerClosed && b.failures >= breakerThreshold {
		b.state = breakerOpen
		b.openedAt = b.now()
	}
}

// halfOpen moves an open breaker straight to half-open: a health probe
// just confirmed the replica is back, so trial traffic may flow now
// instead of waiting out the cooldown (its outcome still decides
// whether the breaker closes).
func (b *breaker) halfOpen() {
	b.mu.Lock()
	if b.state == breakerOpen {
		b.state = breakerHalfOpen
	}
	b.mu.Unlock()
}

// trip forces the breaker open (probe failure / dial-failure markDown:
// the replica is known dead, no need to count up to the threshold).
func (b *breaker) trip() {
	b.mu.Lock()
	if b.state != breakerOpen {
		b.state = breakerOpen
		b.openedAt = b.now()
	}
	b.mu.Unlock()
}

// stateName reports the state for the metrics surface.
func (b *breaker) stateName() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// retryBudget is the token bucket bounding aggregate retries. Successful
// forwards earn retryBudgetRatio tokens (capped at retryBudgetTokens);
// each retry spends one. The bucket starts full so cold-start and
// low-traffic retries work.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
}

func newRetryBudget() *retryBudget { return &retryBudget{tokens: retryBudgetTokens} }

// credit books one successful forward.
func (b *retryBudget) credit() {
	b.mu.Lock()
	b.tokens = math.Min(retryBudgetTokens, b.tokens+retryBudgetRatio)
	b.mu.Unlock()
}

// spend takes one retry token, reporting false when the budget is
// exhausted (the caller fails fast instead of retrying).
func (b *retryBudget) spend() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// maxBackoff caps the exponential retry backoff.
const maxBackoff = 2 * time.Second

// backoff is the jittered exponential delay before retry attempt
// (0-based): full jitter over [base/2, base*2^attempt], so synchronized
// clients spread out instead of retrying in lockstep.
func (rt *Router) backoff(attempt int) time.Duration {
	d := rt.opts.RetryBackoff
	for i := 0; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}
