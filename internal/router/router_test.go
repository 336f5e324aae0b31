package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"riscvsim/internal/api"
	"riscvsim/internal/client"
	"riscvsim/internal/server"
	"riscvsim/internal/store"
	"riscvsim/sim"
)

// loopAsm never halts, so any step budget runs in full — failover tests
// need deterministic cycle counts.
const loopAsm = "loop: addi t0, t0, 1\nbeq x0, x0, loop\n"

type testReplica struct {
	name string
	ts   *httptest.Server
	hits atomic.Int64
}

type testCluster struct {
	t        *testing.T
	backend  *store.Mem
	replicas []*testReplica
	rt       *Router
	routerTS *httptest.Server
}

// newTestCluster spins n in-process simserver replicas over one shared
// in-memory checkpoint store behind a router — the compose topology,
// minus the containers.
func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	c := &testCluster{t: t, backend: store.NewMem()}
	var reps []Replica
	for i := 0; i < n; i++ {
		srv := server.New(server.Options{
			MaxSessions:      16,
			Store:            c.backend,
			AllowAssignedIDs: true,
		})
		tr := &testReplica{name: fmt.Sprintf("sim%d", i+1)}
		inner := srv.Handler()
		tr.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			tr.hits.Add(1)
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(tr.ts.Close)
		c.replicas = append(c.replicas, tr)
		reps = append(reps, Replica{Name: tr.name, URL: tr.ts.URL})
	}
	rt, err := New(Options{
		Replicas:       reps,
		HealthInterval: 50 * time.Millisecond,
		HealthTimeout:  300 * time.Millisecond,
		RetryBackoff:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.rt = rt
	t.Cleanup(rt.Close)
	c.routerTS = httptest.NewServer(rt.Handler())
	t.Cleanup(c.routerTS.Close)
	return c
}

func (c *testCluster) client() *client.Client {
	return client.NewForURL(c.routerTS.URL, true)
}

func (c *testCluster) kill(name string) {
	c.t.Helper()
	for _, r := range c.replicas {
		if r.name == name {
			r.ts.Close()
			return
		}
	}
	c.t.Fatalf("no replica %q", name)
}

// ownerOf asks the router's admin surface which replica owns a session.
func (c *testCluster) ownerOf(id string) string {
	c.t.Helper()
	resp, err := http.Get(c.routerTS.URL + "/admin/owner?session=" + id)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var out OwnerResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		c.t.Fatal(err)
	}
	return out.Owner
}

// referenceHash runs the same program uninterrupted on one in-process
// machine and returns its state hash after total cycles — the bit-exact
// yardstick every failover path must match.
func referenceHash(t *testing.T, asm string, total uint64) uint64 {
	t.Helper()
	m, err := sim.NewFromAsm(sim.DefaultConfig(), asm, "")
	if err != nil {
		t.Fatal(err)
	}
	m.EnableSnapshots(0)
	m.StepN(total)
	return m.StateHash()
}

// remoteHash checkpoints a routed session and hashes the state it
// serializes.
func remoteHash(t *testing.T, cl *client.Client, id string) uint64 {
	t.Helper()
	ck, err := cl.Checkpoint(id)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.Restore(bytes.NewReader(ck.Checkpoint))
	if err != nil {
		t.Fatal(err)
	}
	return m.StateHash()
}

func TestRendezvousStability(t *testing.T) {
	names := []string{"sim1", "sim2", "sim3"}
	ownerAmong := func(id string, replicas []string) string {
		best, bestScore := "", uint64(0)
		for _, n := range replicas {
			if s := rendezvousScore(id, n); best == "" || s > bestScore {
				best, bestScore = n, s
			}
		}
		return best
	}
	counts := map[string]int{}
	moved := 0
	for i := 0; i < 3000; i++ {
		id := fmt.Sprintf("s%08d", i)
		full := ownerAmong(id, names)
		counts[full]++
		// Removing sim2 must only remap sim2's sessions.
		reduced := ownerAmong(id, []string{"sim1", "sim3"})
		if full != "sim2" && reduced != full {
			t.Fatalf("session %s moved %s -> %s when sim2 left the ring", id, full, reduced)
		}
		if full == "sim2" {
			moved++
		}
	}
	for _, n := range names {
		if counts[n] < 3000/3/2 {
			t.Errorf("replica %s owns only %d/3000 sessions — distribution badly skewed: %v", n, counts[n], counts)
		}
	}
	if moved == 0 {
		t.Error("sim2 owned nothing; the distribution check is vacuous")
	}
}

func TestRouterSessionAffinity(t *testing.T) {
	c := newTestCluster(t, 3)
	cl := c.client()
	for i := 0; i < 5; i++ {
		sess, err := cl.NewSession(&api.SessionNewRequest{SimulateRequest: api.SimulateRequest{Code: loopAsm}})
		if err != nil {
			t.Fatal(err)
		}
		owner := c.ownerOf(sess.SessionID)
		for j := 0; j < 3; j++ {
			if _, err := cl.Step(sess.SessionID, 10); err != nil {
				t.Fatalf("step %d on %s: %v", j, sess.SessionID, err)
			}
			if got := c.ownerOf(sess.SessionID); got != owner {
				t.Fatalf("session %s owner flapped %s -> %s with a stable ring", sess.SessionID, owner, got)
			}
		}
	}
}

func TestRouterStatelessRoundRobin(t *testing.T) {
	c := newTestCluster(t, 3)
	cl := c.client()
	for i := 0; i < 9; i++ {
		if _, err := cl.Simulate(&api.SimulateRequest{Code: "li a0, 1\n", Steps: 10}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range c.replicas {
		if r.hits.Load() == 0 {
			t.Errorf("replica %s served nothing — stateless requests are not spreading", r.name)
		}
	}
}

// TestRouterFailoverBitExact is the heart of the distributed tier: a
// session checkpointed through the router survives its owner dying, and
// the rehydrated continuation on the new owner is bit-identical to an
// uninterrupted single-node run.
func TestRouterFailoverBitExact(t *testing.T) {
	const k1, k2 = 400, 300
	c := newTestCluster(t, 3)
	cl := c.client()
	sess, err := cl.NewSession(&api.SessionNewRequest{SimulateRequest: api.SimulateRequest{Code: loopAsm}})
	if err != nil {
		t.Fatal(err)
	}
	id := sess.SessionID
	if _, err := cl.Step(id, k1); err != nil {
		t.Fatal(err)
	}
	// The explicit checkpoint write-through makes the shared store the
	// session's authority — the durability boundary for the kill below.
	if _, err := cl.Checkpoint(id); err != nil {
		t.Fatal(err)
	}
	oldOwner := c.ownerOf(id)
	c.kill(oldOwner)

	st, err := cl.Step(id, k2)
	if err != nil {
		t.Fatalf("step after killing owner %s: %v", oldOwner, err)
	}
	if st.State.Cycle != k1+k2 {
		t.Fatalf("post-failover cycle = %d, want %d", st.State.Cycle, k1+k2)
	}
	if newOwner := c.ownerOf(id); newOwner == oldOwner {
		t.Fatalf("owner still %s after its death", oldOwner)
	}
	if got, want := remoteHash(t, cl, id), referenceHash(t, loopAsm, k1+k2); got != want {
		t.Errorf("failover state hash %#x, want uninterrupted reference %#x", got, want)
	}
}

// TestRouterSessionMoved pins the lossy-failover contract: a session
// that never checkpointed has nothing in the store, so after its owner
// dies the router reports session_moved (410) — not a bare
// unknown_session — telling the client the state is gone.
func TestRouterSessionMoved(t *testing.T) {
	c := newTestCluster(t, 3)
	cl := c.client()
	sess, err := cl.NewSession(&api.SessionNewRequest{SimulateRequest: api.SimulateRequest{Code: loopAsm}})
	if err != nil {
		t.Fatal(err)
	}
	id := sess.SessionID
	if _, err := cl.Step(id, 100); err != nil {
		t.Fatal(err)
	}
	c.kill(c.ownerOf(id))
	_, err = cl.Step(id, 100)
	if err == nil {
		t.Fatal("step succeeded though the only copy of the session died uncheckpointed")
	}
	if code := client.ErrorCode(err); code != api.CodeSessionMoved {
		t.Fatalf("error code = %q (%v), want %q", code, err, api.CodeSessionMoved)
	}
}

func TestRouterNodeUnavailable(t *testing.T) {
	c := newTestCluster(t, 2)
	cl := c.client()
	sess, err := cl.NewSession(&api.SessionNewRequest{SimulateRequest: api.SimulateRequest{Code: loopAsm}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range c.replicas {
		r.ts.Close()
	}
	_, err = cl.Step(sess.SessionID, 10)
	if code := client.ErrorCode(err); code != api.CodeNodeUnavailable {
		t.Fatalf("error code = %q (%v), want %q", code, err, api.CodeNodeUnavailable)
	}
	_, err = cl.NewSession(&api.SessionNewRequest{SimulateRequest: api.SimulateRequest{Code: loopAsm}})
	if code := client.ErrorCode(err); code != api.CodeNodeUnavailable {
		t.Fatalf("create error code = %q (%v), want %q", code, err, api.CodeNodeUnavailable)
	}
}

// TestRouterMigrationOnRecovery pins the checkpoint-handoff sweep: when
// a replica joins (or rejoins) the ring, live sessions it now scores
// highest on move to it without losing un-checkpointed state.
func TestRouterMigrationOnRecovery(t *testing.T) {
	backend := store.NewMem()
	newReplicaServer := func() http.Handler {
		return server.New(server.Options{
			MaxSessions: 16, Store: backend, AllowAssignedIDs: true,
		}).Handler()
	}
	live := httptest.NewServer(newReplicaServer())
	defer live.Close()
	// sim2 holds a reserved address that nothing serves yet: its health
	// probes fail until the server starts there later.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lateURL := "http://" + ln.Addr().String()
	ln.Close()

	rt, err := New(Options{
		Replicas: []Replica{
			{Name: "sim1", URL: live.URL},
			{Name: "sim2", URL: lateURL},
		},
		HealthInterval: 25 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
		RetryBackoff:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	routerTS := httptest.NewServer(rt.Handler())
	defer routerTS.Close()
	cl := client.NewForURL(routerTS.URL, true)

	// Collect sessions until one rendezvous-prefers sim2 (it lands on
	// sim1 for now — sim2 is down). ~50% per draw, so 32 tries is
	// overwhelmingly enough.
	var id string
	for i := 0; i < 32; i++ {
		sess, err := cl.NewSession(&api.SessionNewRequest{SimulateRequest: api.SimulateRequest{Code: loopAsm}})
		if err != nil {
			t.Fatal(err)
		}
		if rendezvousScore(sess.SessionID, "sim2") > rendezvousScore(sess.SessionID, "sim1") {
			id = sess.SessionID
			break
		}
	}
	if id == "" {
		t.Fatal("no drawn session prefers sim2 (astronomically unlikely)")
	}
	if _, err := cl.Step(id, 250); err != nil {
		t.Fatal(err)
	}

	// sim2 comes up on the reserved address; the next health probe
	// triggers the migration sweep.
	ln2, err := net.Listen("tcp", ln.Addr().String())
	if err != nil {
		t.Skipf("reserved port reuse failed: %v", err)
	}
	late := &httptest.Server{Listener: ln2, Config: &http.Server{Handler: newReplicaServer()}}
	late.Start()
	defer late.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("session never migrated to sim2")
		}
		resp, err := http.Get(routerTS.URL + "/admin/owner?session=" + id)
		if err != nil {
			t.Fatal(err)
		}
		var out OwnerResponse
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if out.Owner == "sim2" {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	// Poll until the handoff restore lands on sim2, then verify the
	// un-checkpointed state (cycle 250) survived the live migration
	// bit-exactly.
	var st *api.SessionStateResponse
	for {
		st, err = cl.Step(id, 50)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("step after migration: %v", err)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if st.State.Cycle != 300 {
		t.Fatalf("post-migration cycle = %d, want 300 (state lost in handoff)", st.State.Cycle)
	}
	if got, want := remoteHash(t, cl, id), referenceHash(t, loopAsm, 300); got != want {
		t.Errorf("post-migration hash %#x, want %#x", got, want)
	}
}

func TestParseReplicas(t *testing.T) {
	reps, err := ParseReplicas("sim1=http://sim1:8042, sim2=http://sim2:8042,http://10.0.0.7:8042")
	if err != nil {
		t.Fatal(err)
	}
	want := []Replica{
		{Name: "sim1", URL: "http://sim1:8042"},
		{Name: "sim2", URL: "http://sim2:8042"},
		{Name: "10.0.0.7:8042", URL: "http://10.0.0.7:8042"},
	}
	if len(reps) != len(want) {
		t.Fatalf("got %d replicas, want %d", len(reps), len(want))
	}
	for i := range want {
		if reps[i] != want[i] {
			t.Errorf("replica %d = %+v, want %+v", i, reps[i], want[i])
		}
	}
	for _, bad := range []string{"", "sim1=not a url", "a=http://x:1,a=http://y:2"} {
		if _, err := ParseReplicas(bad); err == nil {
			t.Errorf("ParseReplicas(%q) accepted", bad)
		}
	}
}
