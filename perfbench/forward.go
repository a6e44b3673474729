package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"

	"github.com/in-net/innet/internal/api"
	"github.com/in-net/innet/internal/packet"
)

// fwdModule is one module the forward workload deploys and drives.
type fwdModule struct {
	req api.DeployRequest
	// nat: passing packets leave with their destination rewritten to
	// natTarget; otherwise the module mirrors them back.
	nat bool
	// port is the UDP destination port the module's filter admits;
	// denyPort, when set, one it drops.
	port, denyPort uint16
	// fallback: the compiler cannot flatten the config, so packets
	// take the graph walk.
	fallback bool

	addr string // filled in by the deploy
	ip   uint32
}

// forwardModules are the three live modules: a stateless compiled
// mirror (the geo-dns stock module), a stateful compiled firewall →
// NAT, and a mirror the compiler refuses (RoundRobinSwitch output
// depends on arrival order), which runs on the graph walk.
func forwardModules() []*fwdModule {
	return []*fwdModule{
		{
			req:  api.DeployRequest{Tenant: "fwd", ModuleName: "dns", Stock: "geo-dns", Trust: "third-party"},
			port: 53,
		},
		{
			req: api.DeployRequest{Tenant: "fwd", ModuleName: "fwnat", Trust: "client", Config: fmt.Sprintf(`
in :: FromNetfront();
fw :: IPFilter(allow udp dst port 1500, deny all);
nat :: IPRewriter(pattern - - %s - 0 0);
out :: ToNetfront();
in -> fw -> nat -> out;
`, natTarget)},
			nat: true, port: 1500, denyPort: 1501,
		},
		{
			req: api.DeployRequest{Tenant: "fwd", ModuleName: "rr", Trust: "client", Config: `
in :: FromNetfront();
f :: IPFilter(allow udp dst port 7, deny all);
rr :: RoundRobinSwitch(2);
m0 :: IPMirror();
m1 :: IPMirror();
out :: ToNetfront();
in -> f -> rr;
rr[0] -> m0 -> out;
rr[1] -> m1 -> out;
`},
			port: 7, fallback: true,
		},
	}
}

// Traffic shape: burst sizes in rotation (equal numbers of calls),
// the percentage of bursts aimed at the graph-walk module (about the
// same share of packets), one burst in newFlowEvery opening a new
// 5-tuple, one NAT burst in denyEvery aimed at a filtered port, and
// the initial flow pool per module.
var burstSizes = []int{1, 8, 64}

const (
	fallbackPercent = 10
	newFlowEvery    = 8
	denyEvery       = 8
	initialFlows    = 64
)

// flow is a pool entry: the source side of a 5-tuple.
type flow struct {
	src   uint32
	sport uint16
}

// Burst is one Simulator.Inject call with its expected output: WantN
// emitted packets, each with the 5-tuple Want.
type Burst struct {
	Mod     int
	Req     api.InjectRequest
	NewFlow bool
	Denied  bool
	WantN   int
	Want    api.EmittedPacket
}

// ForwardGen draws the seeded burst stream.
type ForwardGen struct {
	rng   *rand.Rand
	mods  []*fwdModule
	pools [][]flow
	n     int
}

// NewForwardGen builds the stream over deployed modules.
func NewForwardGen(seed int64, mods []*fwdModule) *ForwardGen {
	g := &ForwardGen{rng: rand.New(rand.NewSource(seed*31337 + 3)), mods: mods, pools: make([][]flow, len(mods))}
	for m := range mods {
		for i := 0; i < initialFlows; i++ {
			g.pools[m] = append(g.pools[m], g.newFlow())
		}
	}
	return g
}

func (g *ForwardGen) newFlow() flow {
	return flow{src: packet.MustParseIP("203.0.113.0") + 1 + uint32(g.rng.Intn(254)), sport: uint16(1024 + g.rng.Intn(64000))}
}

// Prime returns one single-packet burst per initial pool flow, sent
// before the window so those flows are established.
func (g *ForwardGen) Prime() []Burst {
	var out []Burst
	for m, pool := range g.pools {
		for _, f := range pool {
			out = append(out, g.burst(m, f, g.mods[m].port, 1))
		}
	}
	return out
}

// Next draws one burst.
func (g *ForwardGen) Next() Burst {
	size := burstSizes[g.n%len(burstSizes)]
	g.n++
	m := 0
	switch r := g.rng.Intn(100); {
	case r < fallbackPercent:
		m = 2
	case r < fallbackPercent+(100-fallbackPercent)/2:
		m = 0
	default:
		m = 1
	}
	var f flow
	isNew := g.rng.Intn(newFlowEvery) == 0
	if isNew {
		f = g.newFlow()
		g.pools[m] = append(g.pools[m], f)
	} else {
		f = g.pools[m][g.rng.Intn(len(g.pools[m]))]
	}
	mod := g.mods[m]
	port := mod.port
	if mod.denyPort != 0 && g.rng.Intn(denyEvery) == 0 {
		port = mod.denyPort
	}
	b := g.burst(m, f, port, size)
	b.NewFlow = isNew
	return b
}

// burst builds a burst and its oracle: a mirror swaps addresses and
// ports, the NAT rewrites the destination address, and a packet the
// filter denies emits nothing.
func (g *ForwardGen) burst(m int, f flow, port uint16, size int) Burst {
	mod := g.mods[m]
	src := packet.IPString(f.src)
	b := Burst{
		Mod: m,
		Req: api.InjectRequest{Dst: mod.addr, Src: src, Proto: "udp", SrcPort: f.sport, DstPort: port, Count: size},
	}
	if port != mod.port {
		b.Denied = true
		return b
	}
	b.WantN = size
	if mod.nat {
		b.Want = api.EmittedPacket{Src: src, Dst: natTarget, Proto: "udp", SrcPort: f.sport, DstPort: port}
	} else {
		b.Want = api.EmittedPacket{Src: mod.addr, Dst: src, Proto: "udp", SrcPort: port, DstPort: f.sport}
	}
	return b
}

// Check compares an Inject response with the oracle.
func (b *Burst) Check(resp *api.InjectResponse) bool {
	if resp == nil || resp.Sent != b.Req.Count || len(resp.Emitted) != b.WantN {
		return false
	}
	for _, e := range resp.Emitted {
		if e.Src != b.Want.Src || e.Dst != b.Want.Dst || e.Proto != b.Want.Proto ||
			e.SrcPort != b.Want.SrcPort || e.DstPort != b.Want.DstPort {
			return false
		}
	}
	return true
}

// fwdSetup is a daemon with the forward modules deployed and booted.
type fwdSetup struct {
	d    *daemon
	mods []*fwdModule
}

// setupForward builds the daemon, deploys the three modules over HTTP,
// checks which dataplane each landed on, and boots each VM with a
// first packet.
func setupForward(stateRoot string) (*fwdSetup, error) {
	dir, err := os.MkdirTemp(stateRoot, "forward-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, nil)
	if err != nil {
		return nil, err
	}
	s := &fwdSetup{d: d, mods: forwardModules()}
	if err := s.deploy(); err != nil {
		d.close()
		return nil, err
	}
	return s, nil
}

func (s *fwdSetup) deploy() error {
	c := newHTTPClient(s.d.url, 1)
	defer c.close()
	for _, m := range s.mods {
		body, _ := json.Marshal(m.req)
		status, resp, err := c.do(http.MethodPost, "/v1/modules", body, "")
		if err != nil {
			return err
		}
		if status != http.StatusCreated {
			return fmt.Errorf("deploy %s: status %d: %s", m.req.ModuleName, status, resp)
		}
		var dr api.DeployResponse
		if err := json.Unmarshal(resp, &dr); err != nil {
			return err
		}
		m.addr = dr.Addr
		if m.ip, err = packet.ParseIP(dr.Addr); err != nil {
			return err
		}
	}
	status, resp, err := c.do(http.MethodGet, "/v1/modules", nil, "")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("list modules: status %d: %v", status, err)
	}
	var infos []api.ModuleInfo
	if err := json.Unmarshal(resp, &infos); err != nil {
		return err
	}
	for _, m := range s.mods {
		for _, in := range infos {
			if in.ModuleName != m.req.ModuleName {
				continue
			}
			graph := in.Dataplane == "graph-walk" && in.FallbackReason != ""
			if graph != m.fallback {
				return fmt.Errorf("module %s runs on %q (fallback reason %q)", in.ModuleName, in.Dataplane, in.FallbackReason)
			}
		}
	}
	g := &ForwardGen{mods: s.mods}
	for i, m := range s.mods {
		b := g.burst(i, flow{src: packet.MustParseIP("198.18.0.1"), sport: 40000}, m.port, 1)
		resp, err := s.d.sim.Inject(b.Req)
		if err != nil {
			return fmt.Errorf("boot %s: %w", m.req.ModuleName, err)
		}
		if !resp.BootedVM || !b.Check(resp) {
			return fmt.Errorf("boot %s: booted=%v emitted %+v", m.req.ModuleName, resp.BootedVM, resp.Emitted)
		}
	}
	return nil
}

func (s *fwdSetup) close() error { return s.d.close() }
