package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"riscvsim/internal/api"
	"riscvsim/internal/cache"
	"riscvsim/internal/workload"
)

// TestSessionsShareProgramAndFragments: sessions of one source share its
// Program — display tables included — and every reply is encoded after
// the session lock is released, from views and cache-line fragments that
// the session's next request is already free to replace. Several sessions
// of one program, two clients each stepping the same session forward,
// backward and across snapshots at once: every reply must be a whole,
// self-consistent state, and each session must end in the state of a
// machine driven alone to the same cycle. Under -race this is the check
// that nothing handed to a reply is written again (CI: race job,
// -count=5).
func TestSessionsShareProgramAndFragments(t *testing.T) {
	w, _ := workload.ByName("sort-insertion")
	srv, ts := newTestServer(t)
	req := &api.SessionNewRequest{SimulateRequest: api.SimulateRequest{Code: w.Source, Entry: w.Entry}}
	post := func(path string, body, into any) error {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+api.V1Prefix+path, api.MediaTypeJSON, bytes.NewReader(data))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(into)
	}
	// A whole state lists every valid cache line, and only those, in
	// set-major order, each with its 64 bytes of data.
	checkState := func(st *api.SessionStateResponse) error {
		if st.State == nil || len(st.State.IntRegs) != 32 {
			return fmt.Errorf("reply is not a whole state")
		}
		for i, lv := range st.State.CacheLines {
			if !lv.Valid || len(lv.Data) != 64 {
				return fmt.Errorf("cycle %d: line %d/%d listed with valid=%v and %d data bytes", st.State.Cycle, lv.Set, lv.Way, lv.Valid, len(lv.Data))
			}
			if i > 0 {
				if prev := st.State.CacheLines[i-1]; lv.Set < prev.Set || lv.Set == prev.Set && lv.Way <= prev.Way {
					return fmt.Errorf("cycle %d: line %d/%d listed after %d/%d", st.State.Cycle, lv.Set, lv.Way, prev.Set, prev.Way)
				}
			}
		}
		return nil
	}

	const sessions, clients, requests = 3, 2, 40
	moves := []int64{1, 1, 3, -1, 1, 300, -2, 1, -280, 1}
	var wg sync.WaitGroup
	ids := make([]string, sessions)
	for s := range ids {
		var created api.SessionNewResponse
		if err := post("/session/new", req, &created); err != nil {
			t.Fatal(err)
		}
		ids[s] = created.SessionID
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < requests; i++ {
					var st api.SessionStateResponse
					err := post("/session/step", &api.SessionStepRequest{SessionID: ids[s], Steps: moves[(i+c)%len(moves)]}, &st)
					if err == nil {
						err = checkState(&st)
					}
					if err != nil {
						t.Errorf("session %d client %d request %d: %v", s, c, i, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if hits := srv.Metrics().ProgramCacheHits; hits == 0 {
		t.Error("the sessions did not share a cached Program")
	}
	for s, id := range ids {
		var st api.SessionStateResponse
		if err := post("/session/step", &api.SessionStepRequest{SessionID: id, Steps: 0}, &st); err != nil {
			t.Fatal(err)
		}
		alone, err := workload.NewMachine(nil, w)
		if err != nil {
			t.Fatal(err)
		}
		alone.StepN(st.State.Cycle)
		// The valid lines of the machine alone, copied field by field: a
		// decoded reply carries no fragment.
		var valid []cache.LineView
		for _, lv := range alone.Sim().Cache().Lines() {
			if lv.Valid {
				valid = append(valid, cache.LineView{Set: lv.Set, Way: lv.Way, Valid: true, Dirty: lv.Dirty, Tag: lv.Tag, Addr: lv.Addr, Data: lv.Data})
			}
		}
		if !reflect.DeepEqual(st.State.CacheLines, valid) {
			t.Errorf("session %d at cycle %d lists %d cache lines, not the %d valid lines of a machine stepped there alone", s, st.State.Cycle, len(st.State.CacheLines), len(valid))
		}
		got, _ := json.Marshal(st.State)
		want, _ := json.Marshal(alone.State(false))
		if !bytes.Equal(got, want) {
			t.Errorf("session %d at cycle %d differs from a machine stepped there alone", s, st.State.Cycle)
		}
	}
}
