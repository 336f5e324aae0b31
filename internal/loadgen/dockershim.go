package loadgen

import (
	"net/http"
	"runtime"
	"sync"
	"time"
)

// DockerShim models containerized deployment overhead for the Table I
// "Docker" rows, a substitution: the original evaluation runs
// the same server inside Docker, which costs a small per-request
// constant (userland proxying, veth NAT) plus reduced effective
// parallelism — visible in the paper as a slightly higher median at 30
// users and a much heavier tail and lower throughput at 100 users.
//
// The shim reproduces both mechanisms explicitly:
//   - a fixed per-request overhead (ProxyDelay), and
//   - a concurrency limiter (Parallelism) that queues requests under
//     load, inflating tail latencies exactly like a saturated container.
type DockerShim struct {
	// ProxyDelay is the fixed per-request overhead.
	ProxyDelay time.Duration
	// Parallelism caps concurrently serviced requests.
	Parallelism int

	next http.Handler
	sem  chan struct{}
	once sync.Once
}

// DefaultDockerShim wraps a handler with calibrated defaults: ~2 ms proxy
// cost and half the machine's cores.
func DefaultDockerShim(next http.Handler) *DockerShim {
	p := runtime.NumCPU() / 2
	if p < 1 {
		p = 1
	}
	return &DockerShim{ProxyDelay: 2 * time.Millisecond, Parallelism: p, next: next}
}

// Wrap sets the inner handler (when not using DefaultDockerShim).
func (d *DockerShim) Wrap(next http.Handler) *DockerShim {
	d.next = next
	return d
}

// ServeHTTP implements http.Handler.
func (d *DockerShim) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.once.Do(func() {
		n := d.Parallelism
		if n < 1 {
			n = 1
		}
		d.sem = make(chan struct{}, n)
	})
	d.sem <- struct{}{}
	defer func() { <-d.sem }()
	if d.ProxyDelay > 0 {
		time.Sleep(d.ProxyDelay)
	}
	d.next.ServeHTTP(w, r)
}
