package server

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"riscvsim/internal/api"
)

// maxBatchRequests bounds one /api/v1/batch call.
const maxBatchRequests = 256

// fanOut runs N independent simulations across a bounded worker pool
// (one goroutine per core, work-stealing by index) and returns the
// results in request order. It is the shared execution engine of
// /api/v1/batch and /api/v1/suite. Each worker books its phases into a
// timer of its own; the request's timer takes them in when all are done
// (phaseTimer.join). A context cancellation (client gone) aborts the
// fan-out: nobody is listening for results.
func (s *Server) fanOut(ctx context.Context, reqs []api.SimulateRequest) ([]api.BatchResult, int, time.Duration, *api.Error) {
	n := len(reqs)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	results := make([]api.BatchResult, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	timers := make([]phaseTimer, workers)
	wstart := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		wctx := withTimer(ctx, &timers[w])
		go func() {
			defer wg.Done()
			for wctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i] = s.runBatchItem(wctx, i, &reqs[i])
			}
		}()
	}
	wg.Wait()
	timerFrom(ctx).join(timers)
	if err := ctx.Err(); err != nil {
		return nil, workers, 0, api.WrapError(api.CodeInternal, err)
	}
	return results, workers, time.Since(wstart), nil
}

// handleBatch fans N independent simulations out across a bounded worker
// pool (one goroutine per core). Sweep workloads — issue widths, cache
// studies, load generation — get the whole study in a single round trip
// instead of N, and the host's cores instead of one.
func (s *Server) handleBatch(_ http.ResponseWriter, r *http.Request, req *api.BatchRequest) (any, *api.Error) {
	n := len(req.Requests)
	if n == 0 {
		return nil, api.Errorf(api.CodeBadRequest, "batch: no requests")
	}
	if n > maxBatchRequests {
		return nil, api.Errorf(api.CodeBatchTooLarge,
			"batch of %d requests exceeds the limit of %d", n, maxBatchRequests)
	}
	if len(req.BaseCheckpoint) > 0 {
		// Fork every entry without its own snapshot from the shared warm
		// checkpoint: each worker restores an independent machine from
		// the same bytes, so N-variant sweeps skip the warm-up replay.
		for i := range req.Requests {
			if len(req.Requests[i].Checkpoint) == 0 {
				req.Requests[i].Checkpoint = req.BaseCheckpoint
			}
		}
	}

	results, workers, wall, aerr := s.fanOut(r.Context(), req.Requests)
	if aerr != nil {
		return nil, aerr
	}

	resp := &api.BatchResponse{
		Results:   results,
		Workers:   workers,
		WallNanos: uint64(wall),
	}
	for i := range results {
		if results[i].Error != nil {
			resp.Failed++
		} else {
			resp.Succeeded++
		}
	}
	s.ctr[ctrBatchReqs].Add(1)
	s.ctr[ctrBatchSims].Add(uint64(n))
	return resp, nil
}

// runBatchItem executes one batch entry, converting a simulator panic
// into a per-item error: unlike handler goroutines, worker goroutines
// get no recovery from net/http, so without this one crafted entry
// could kill the whole process.
func (s *Server) runBatchItem(ctx context.Context, i int, req *api.SimulateRequest) (res api.BatchResult) {
	defer func() {
		if r := recover(); r != nil {
			res = api.BatchResult{Index: i, Error: api.Errorf(api.CodeInternal, "simulation panicked: %v", r)}
		}
	}()
	_, resp, aerr := s.simulate(ctx, req)
	return api.BatchResult{Index: i, Response: resp, Error: aerr}
}
