package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/packet"
)

// The stateful-equivalence property: running a schedule of forward
// and reply packets through the compiled Exec leaves every stateful
// element's per-flow state exactly as the graph walk over one router
// would — the check that admission's verdict, proved on the graph,
// holds for the pipeline the platform runs.
//
// The property is checked with testing/quick over a seeded generator:
// each sample is a random schedule of forward and reply packets over a
// random flow population, with time advancing past the firewall
// timeout often enough to exercise expiry.

const quickConfig = `
a :: FromNetfront(0);
b :: FromNetfront(1);
fw :: StatefulFirewall(allow udp, timeout 5);
fm :: FlowMeter;
o0 :: ToNetfront(0);
o1 :: ToNetfront(1);
a -> [0]fw;
b -> [1]fw;
fw[0] -> fm -> o0;
fw[1] -> o1;
`

type quickEvent struct {
	src int // 0 = outbound (policy side), 1 = inbound reply
	pk  *packet.Packet
	now int64
}

// genSchedule derives a deterministic traffic schedule from one seed.
func genSchedule(seed int64) []quickEvent {
	rng := rand.New(rand.NewSource(seed))
	nflows := 2 + rng.Intn(14)
	flows := make([]packet.FiveTuple, nflows)
	for i := range flows {
		proto := packet.ProtoUDP
		if rng.Intn(4) == 0 {
			proto = packet.ProtoTCP // violates the allow-udp policy
		}
		flows[i] = packet.FiveTuple{
			SrcIP:    0x0a000000 + uint32(rng.Intn(1<<16)),
			DstIP:    0xc0000200 + uint32(rng.Intn(8)),
			SrcPort:  uint16(1024 + rng.Intn(4096)),
			DstPort:  uint16(80 + rng.Intn(4)),
			Protocol: proto,
		}
	}
	n := 20 + rng.Intn(100)
	evs := make([]quickEvent, 0, n)
	now := int64(0)
	for i := 0; i < n; i++ {
		// Occasionally jump past the 5ns firewall timeout so replay
		// hits expired state.
		if rng.Intn(10) == 0 {
			now += 4 + int64(rng.Intn(8))
		} else {
			now += int64(rng.Intn(2))
		}
		f := flows[rng.Intn(nflows)]
		pk := &packet.Packet{TTL: 64, Payload: []byte("q")}
		src := 0
		if rng.Intn(3) == 0 { // a reply, under the reversed tuple
			src = 1
			f = f.Reverse()
		}
		pk.SrcIP, pk.DstIP = f.SrcIP, f.DstIP
		pk.SrcPort, pk.DstPort = f.SrcPort, f.DstPort
		pk.Protocol = f.Protocol
		evs = append(evs, quickEvent{src: src, pk: pk, now: now})
	}
	return evs
}

func cloneEvent(ev quickEvent) *packet.Packet {
	pk := ev.pk.Clone()
	return pk
}

func TestQuickFlowAffinityStateEquivalence(t *testing.T) {
	prop := func(seed int64) bool {
		evs := genSchedule(seed)

		// Reference: one router, graph walk.
		gr := click.MustBuildString(quickConfig)
		var gnow int64
		gctx := &click.Context{Now: func() int64 { return gnow }}
		for _, ev := range evs {
			gnow = ev.now
			if err := gr.Inject(gctx, ev.src, cloneEvent(ev)); err != nil {
				t.Fatalf("inject: %v", err)
			}
		}

		// Compiled: the same schedule through one Exec, one packet per
		// Run, as the platform delivers it.
		prog, err := CompileConfig(quickConfig)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		x := NewExec(prog)
		var xnow int64
		x.Now = func() int64 { return xnow }
		for _, ev := range evs {
			xnow = ev.now
			if err := x.RunOne(ev.src, cloneEvent(ev)); err != nil {
				t.Fatalf("run: %v", err)
			}
		}

		gfw := gr.Element("fw").(*elements.StatefulFirewall)
		gfm := gr.Element("fm").(*elements.FlowMeter)
		xfw := prog.Router().Element("fw").(*elements.StatefulFirewall)
		xfm := prog.Router().Element("fm").(*elements.FlowMeter)

		for _, ev := range evs {
			tup := ev.pk.Tuple()
			if ev.src == 1 {
				tup = tup.Reverse() // firewall state is keyed by the forward tuple
			}
			gls, gok := gfw.LastSeen(tup)
			xls, xok := xfw.LastSeen(tup)
			if gok != xok || gls != xls {
				t.Logf("seed=%d flow=%v firewall last-seen: graph=(%d,%v) compiled=(%d,%v)",
					seed, tup, gls, gok, xls, xok)
				return false
			}
			gp, gb, gok := gfm.Stats(tup)
			xp, xb, xok := xfm.Stats(tup)
			if gok != xok || gp != xp || gb != xb {
				t.Logf("seed=%d flow=%v meter: graph=(%d,%d,%v) compiled=(%d,%d,%v)",
					seed, tup, gp, gb, gok, xp, xb, xok)
				return false
			}
		}
		if xfw.ActiveFlows() != gfw.ActiveFlows() || xfm.Flows() != gfm.Flows() || xfw.Blocked != gfw.Blocked {
			t.Logf("seed=%d totals: graph active=%d metered=%d blocked=%d compiled active=%d metered=%d blocked=%d",
				seed, gfw.ActiveFlows(), gfm.Flows(), gfw.Blocked, xfw.ActiveFlows(), xfm.Flows(), xfw.Blocked)
			return false
		}
		return true
	}

	cfg := &quick.Config{
		MaxCount: 30,
		Rand:     rand.New(rand.NewSource(0x17e7)),
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
