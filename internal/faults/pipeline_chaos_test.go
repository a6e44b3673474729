package faults

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/elements"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/pipeline"
	"github.com/in-net/innet/internal/vswitch"
)

// The module chain behind the switch: validation, TTL, accounting —
// all flattenable, with real per-packet state (Counter, DecIPTTL).
const pipelineChaosChain = `
in :: FromNetfront();
chk :: CheckIPHeader;
ttl :: DecIPTTL;
cnt :: Counter;
out :: ToNetfront();
d :: Discard;
in -> chk -> ttl -> cnt -> out;
chk[1] -> d;
ttl[1] -> d;
`

const pipelineChaosModule = uint32(0xc0000205)

// chaosEgress records per-flow egress sequences.
type chaosEgress struct {
	flow map[uint32][]string
}

func (r *chaosEgress) record(iface int, p *packet.Packet) {
	r.flow[p.UserID] = append(r.flow[p.UserID], fmt.Sprintf("i%d ttl=%d %s", iface, p.TTL, p.Payload))
}

// pipelineChaosSchedule builds a seeded traffic/outage script: bursts
// of flow-tagged packets with a platform outage opening mid-burst and
// closing a few bursts later, leaving the switch to buffer and replay.
type chaosEvent struct {
	pkts []*packet.Packet // nil for down/up events
	down bool
	up   bool
}

func pipelineChaosSchedule(seed int64) []chaosEvent {
	rng := rand.New(rand.NewSource(seed))
	nflows := 3 + rng.Intn(6)
	bursts := 8 + rng.Intn(6)
	downAt := 1 + rng.Intn(bursts-3)
	upAt := downAt + 1 + rng.Intn(bursts-downAt-1)
	var ev []chaosEvent
	seq := make([]int, nflows)
	burstPkts := func() []*packet.Packet {
		var pkts []*packet.Packet
		n := 4 + rng.Intn(13)
		for i := 0; i < n; i++ {
			f := uint32(rng.Intn(nflows))
			pkts = append(pkts, &packet.Packet{
				SrcIP: 0x0a000100 + f, DstIP: pipelineChaosModule,
				SrcPort: uint16(2000 + f), DstPort: 443,
				Protocol: packet.ProtoUDP,
				TTL:      uint8(1 + rng.Intn(5)), // some expire in DecIPTTL
				UserID:   f,
				Payload:  []byte(fmt.Sprintf("f%d-p%d", f, seq[f])),
			})
			seq[f]++
		}
		return pkts
	}
	for b := 0; b < bursts; b++ {
		if b == downAt {
			// Outage opens mid-burst: the first half dispatches, the
			// rest (and the following bursts) hit the down switch and
			// buffer.
			pk := burstPkts()
			half := len(pk) / 2
			ev = append(ev, chaosEvent{pkts: pk[:half]}, chaosEvent{down: true}, chaosEvent{pkts: pk[half:]})
			continue
		}
		if b == upAt {
			ev = append(ev, chaosEvent{up: true})
		}
		ev = append(ev, chaosEvent{pkts: burstPkts()})
	}
	if upAt >= bursts {
		ev = append(ev, chaosEvent{up: true})
	}
	return ev
}

// runPipelineChaos replays the schedule through a switch whose
// to-module sink is deliver.
func runPipelineChaos(sched []chaosEvent, deliver func(p *packet.Packet)) {
	s := vswitch.New()
	s.Install(vswitch.Rule{Priority: 1, Match: vswitch.Match{DstIP: pipelineChaosModule},
		Action: vswitch.ActToModule, Module: pipelineChaosModule})
	s.ToModule = func(_ uint32, p *packet.Packet) { deliver(p) }
	for _, e := range sched {
		switch {
		case e.down:
			s.SetDown(true)
		case e.up:
			s.SetDown(false)
		default:
			s.ProcessBatch(e.pkts)
		}
	}
}

// TestChaosPipelineOutageReplay drives seeded outage schedules through
// graph-walk and compiled-pipeline modes and requires identical
// per-flow egress (payload order and TTL rewrites) and element state.
// The switch buffers during the outage and replays on recovery in both
// modes; the compiled Exec the platform runs must preserve that
// per-flow story.
func TestChaosPipelineOutageReplay(t *testing.T) {
	seeds := []int64{1, 7, 23, 51, 94}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			// Same seed, fresh packet objects per run: both modes
			// mutate the packets they carry (DecIPTTL).
			r := click.MustBuildString(pipelineChaosChain)
			want := &chaosEgress{flow: map[uint32][]string{}}
			ctx := &click.Context{Transmit: want.record}
			runPipelineChaos(pipelineChaosSchedule(seed), func(p *packet.Packet) {
				_ = r.Inject(ctx, 0, p)
			})
			wantCnt := r.Element("cnt").(*elements.Counter)

			prog, err := pipeline.CompileConfig(pipelineChaosChain)
			if err != nil {
				t.Fatal(err)
			}
			x := pipeline.NewExec(prog)
			got := &chaosEgress{flow: map[uint32][]string{}}
			x.Transmit = got.record
			runPipelineChaos(pipelineChaosSchedule(seed), func(p *packet.Packet) {
				if err := x.RunOne(0, p); err != nil {
					t.Fatal(err)
				}
			})
			gotCnt := prog.Router().Element("cnt").(*elements.Counter)

			if len(got.flow) != len(want.flow) {
				t.Fatalf("flows: got %d want %d", len(got.flow), len(want.flow))
			}
			for f, w := range want.flow {
				g := got.flow[f]
				if len(g) != len(w) {
					t.Fatalf("flow %d: %d egresses, want %d", f, len(g), len(w))
				}
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("flow %d egress %d: got %q want %q", f, i, g[i], w[i])
					}
				}
			}
			if gotCnt.Packets != wantCnt.Packets || gotCnt.Bytes != wantCnt.Bytes {
				t.Fatalf("counter: compiled %d/%d, graph %d/%d", gotCnt.Packets, gotCnt.Bytes, wantCnt.Packets, wantCnt.Bytes)
			}
		})
	}
}
