package client

import (
	"strings"
	"testing"

	"riscvsim/internal/api"
	"riscvsim/internal/server"
)

const prog = `
li t0, 40
addi a0, t0, 2
`

func TestLocalClientSimulate(t *testing.T) {
	c, closeFn := Local(server.DefaultOptions())
	defer closeFn()
	resp, err := c.Simulate(&api.SimulateRequest{Code: prog, IncludeState: true})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Halted || resp.Stats.Committed != 2 {
		t.Errorf("resp = halted=%v committed=%d", resp.Halted, resp.Stats.Committed)
	}
	found := false
	for _, r := range resp.State.IntRegs {
		if r.Name == "x10" && r.Value == "42" {
			found = true
		}
	}
	if !found {
		t.Error("a0 != 42")
	}
}

func TestClientGzipRoundTrip(t *testing.T) {
	// gzip on both directions through the middleware.
	c, closeFn := Local(server.DefaultOptions())
	defer closeFn()
	resp, err := c.Simulate(&api.SimulateRequest{Code: prog})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil {
		t.Fatal("no stats")
	}
	// And with gzip disabled server-side.
	c2, close2 := Local(server.Options{DisableGzip: true})
	defer close2()
	if _, err := c2.Simulate(&api.SimulateRequest{Code: prog}); err != nil {
		t.Fatal(err)
	}
}

func TestClientCompile(t *testing.T) {
	c, closeFn := Local(server.DefaultOptions())
	defer closeFn()
	resp, err := c.Compile(&api.CompileRequest{Code: "int main() { return 1; }", Optimize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Assembly, "main:") {
		t.Errorf("assembly = %q", resp.Assembly)
	}
}

func TestClientSessionFlow(t *testing.T) {
	c, closeFn := Local(server.DefaultOptions())
	defer closeFn()
	sess, err := c.NewSession(&api.SessionNewRequest{
		SimulateRequest: api.SimulateRequest{Code: prog},
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Step(sess.SessionID, 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Cycle != 2 {
		t.Errorf("cycle = %d", st.State.Cycle)
	}
	st, err = c.Goto(sess.SessionID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.State.Cycle != 1 {
		t.Errorf("goto cycle = %d", st.State.Cycle)
	}
	if err := c.CloseSession(sess.SessionID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(sess.SessionID, 1); err == nil {
		t.Error("step after close should fail")
	}
}

func TestClientErrorSurface(t *testing.T) {
	c, closeFn := Local(server.DefaultOptions())
	defer closeFn()
	_, err := c.Simulate(&api.SimulateRequest{Code: "bogus instr\n"})
	if err == nil || !strings.Contains(err.Error(), "unknown instruction") {
		t.Errorf("err = %v, want the server diagnostic", err)
	}
}

func TestClientMetrics(t *testing.T) {
	c, closeFn := Local(server.DefaultOptions())
	defer closeFn()
	c.Simulate(&api.SimulateRequest{Code: prog})
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests == 0 {
		t.Error("metrics empty")
	}
}

func TestNewBuildsHostPortURL(t *testing.T) {
	c := New("example.com", 1234, true)
	if c.base != "http://example.com:1234" {
		t.Errorf("base = %q", c.base)
	}
}
