package api

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/topology"
)

func newSimulatedServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(topo.Platforms())
	ts := httptest.NewServer(NewServerWithSimulator(ctl, sim))
	t.Cleanup(ts.Close)
	return ts, NewClient(ts.URL)
}

func TestSimulatedDeployAndInject(t *testing.T) {
	_, c := newSimulatedServer(t)
	dep, err := c.Deploy(DeployRequest{
		Tenant: "alice", ModuleName: "Batcher", Trust: "client",
		Config: `
FromNetfront() ->
IPFilter(allow udp port 1500) ->
IPRewriter(pattern - - 10.1.15.133 - 0 0)
-> TimedUnqueue(2,100)
-> dst::ToNetfront()
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	// UDP on the right port: batched, rewritten, emitted.
	res, err := c.Inject(InjectRequest{
		Dst: dep.Addr, Proto: "udp", DstPort: 1500, Payload: "ping", Count: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 2 || len(res.Emitted) != 2 || !res.BootedVM {
		t.Fatalf("inject = %+v", res)
	}
	for _, e := range res.Emitted {
		if e.Dst != "10.1.15.133" || e.Payload != "ping" {
			t.Errorf("emitted = %+v", e)
		}
		// The 2 s batching interval shows up as virtual latency.
		if e.LatencyMS < 2000 {
			t.Errorf("latency = %.1f ms, batching not visible", e.LatencyMS)
		}
	}
	// TCP is filtered by the module.
	res2, err := c.Inject(InjectRequest{Dst: dep.Addr, Proto: "tcp", DstPort: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Emitted) != 0 {
		t.Errorf("tcp passed the filter: %+v", res2.Emitted)
	}
	if res2.BootedVM {
		t.Error("vm should already be resident")
	}
	// Kill unregisters the module from the simulation.
	if err := c.Kill(dep.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Inject(InjectRequest{Dst: dep.Addr}); err == nil {
		t.Error("inject after kill accepted")
	}
}

func TestInjectValidation(t *testing.T) {
	_, c := newSimulatedServer(t)
	cases := []InjectRequest{
		{Dst: "not-an-ip"},
		{Dst: "203.0.113.1"}, // no module there
		{Dst: "198.51.100.1", Proto: "carrier-pigeon"},
		{Dst: "198.51.100.1", Count: 1 << 20},
		{Dst: "198.51.100.1", Src: "nope"},
	}
	for i, req := range cases {
		if _, err := c.Inject(req); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestInjectWithoutSimulatorIs501(t *testing.T) {
	_, c := newTestServer(t) // no simulator attached
	_, err := c.Inject(InjectRequest{Dst: "198.51.100.1"})
	if err == nil || !strings.Contains(err.Error(), "501") {
		t.Errorf("err = %v", err)
	}
}

func TestSimulatedSandboxedTunnel(t *testing.T) {
	// The runtime enforcement story over HTTP: a sandboxed tunnel's
	// enforcer blocks unauthorized inner destinations.
	_, c := newSimulatedServer(t)
	dep, err := c.Deploy(DeployRequest{
		Tenant: "bob", ModuleName: "tun", Trust: "third-party",
		Whitelist: []string{"192.0.2.1"},
		Config: `
in :: FromNetfront();
dec :: IPDecap();
snat :: SetIPSrc($MODULE_IP);
out :: ToNetfront();
in -> dec -> snat -> out;
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dep.Sandboxed {
		t.Fatal("tunnel not sandboxed")
	}
	// Inject a packet whose payload is NOT a valid inner packet: the
	// decapsulator drops it, nothing escapes.
	res, err := c.Inject(InjectRequest{Dst: dep.Addr, Payload: "garbage"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emitted) != 0 {
		t.Errorf("malformed tunnel payload emitted: %+v", res.Emitted)
	}
}

// TestKillDoesNotRaceDeployForFreedAddress: a DELETE frees its
// module's address in the controller before the simulator releases
// it. A POST that lands in that window and is handed the freed
// address must still deploy, not fail with "address already
// registered".
func TestKillDoesNotRaceDeployForFreedAddress(t *testing.T) {
	topo, err := topology.PaperFig3()
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := controller.New(topo, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithSimulator(ctl, NewSimulator(topo.Platforms()))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Retries = 0

	first, err := c.Deploy(DeployRequest{Tenant: "alice", ModuleName: "dns", Stock: "geo-dns", Trust: "third-party"})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		dep *DeployResponse
		err error
	}
	done := make(chan result, 1)
	srv.testAfterKill = func() {
		racer := NewClient(ts.URL)
		racer.Retries = 0
		go func() {
			dep, err := racer.Deploy(DeployRequest{Tenant: "bob", ModuleName: "dns", Stock: "geo-dns", Trust: "third-party"})
			done <- result{dep, err}
		}()
		// Let the POST run to completion unless something holds it
		// back until the simulator has released the address.
		select {
		case r := <-done:
			done <- r
		case <-time.After(time.Second):
		}
	}
	if err := c.Kill(first.ID); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("deploy racing the kill: %v", r.err)
	}
	if r.dep.Addr != first.Addr {
		t.Fatalf("racing deploy got %s, want the freed address %s", r.dep.Addr, first.Addr)
	}
	res, err := c.Inject(InjectRequest{Dst: r.dep.Addr, Proto: "udp", DstPort: 53, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Emitted) != 1 {
		t.Fatalf("inject into the new module = %+v", res)
	}
}
