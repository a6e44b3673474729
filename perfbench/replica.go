package main

import (
	"fmt"
	"time"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/clicklang"
	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/netsim"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/pipeline"
	"github.com/in-net/innet/internal/platform"
	"github.com/in-net/innet/internal/telemetry"
	"github.com/in-net/innet/internal/vswitch"
)

// replica is the packet path api.Simulator runs, rebuilt from public
// calls and wired the way NewSimulator and Register wire it: one
// platform and one vswitch per topology platform, ToModule feeding
// platform.Deliver, one shared netsim clock drained to a 10-minute
// horizon after each burst. The traced run times each call into it.
type replica struct {
	sim    *netsim.Sim
	plats  map[string]*platform.Platform
	sws    map[string]*vswitch.Switch
	byAddr map[uint32]string
	out    []packet.FiveTuple
	emit   func(iface int, pk *packet.Packet)

	// traced: Deliver records its span for the Process call around it.
	traced  bool
	deliver interval
	kids    []interval
}

func newReplica(platformNames []string, traced bool) *replica {
	r := &replica{
		sim:    netsim.New(1),
		plats:  make(map[string]*platform.Platform),
		sws:    make(map[string]*vswitch.Switch),
		byAddr: make(map[uint32]string),
		traced: traced,
	}
	r.emit = func(_ int, pk *packet.Packet) { r.out = append(r.out, pk.Tuple()) }
	for _, name := range platformNames {
		p := platform.New(r.sim, platform.DefaultModel(), 16*1024)
		p.TraceEvery = telemetry.DefaultTraceEvery
		sw := vswitch.New()
		if traced {
			sw.ToModule = func(_ uint32, pk *packet.Packet) {
				t0 := time.Now()
				p.Deliver(pk, r.emit)
				r.deliver = interval{t0, time.Now()}
			}
		} else {
			sw.ToModule = func(_ uint32, pk *packet.Packet) { p.Deliver(pk, r.emit) }
		}
		r.plats[name] = p
		r.sws[name] = sw
	}
	return r
}

// register installs a deployment and its dispatch rule.
func (r *replica) register(dep *controller.Deployment) error {
	p, ok := r.plats[dep.Platform]
	if !ok {
		return fmt.Errorf("no replica platform %q", dep.Platform)
	}
	if err := p.Register(dep.PlatformSpec()); err != nil {
		return err
	}
	r.byAddr[dep.Addr] = dep.Platform
	r.sws[dep.Platform].Install(vswitch.Rule{
		Priority: 10,
		Match:    vswitch.Match{DstIP: dep.Addr},
		Action:   vswitch.ActToModule,
		Module:   dep.Addr,
	})
	return nil
}

// fwdSpans accumulates the traced replica's per-layer time.
type fwdSpans struct {
	vswitchSelf, deliver, run, unattributed, total time.Duration
}

// inject runs one burst as Simulator.Inject does and returns the
// emitted 5-tuples (valid until the next call). When traced, it adds
// each call's span to sp.
func (r *replica) inject(b *Burst, dst uint32, sp *fwdSpans) []packet.FiveTuple {
	name := r.byAddr[dst]
	sw := r.sws[name]
	src := packet.MustParseIP(b.Req.Src)
	r.out = r.out[:0]
	r.kids = r.kids[:0]
	start := r.sim.Now()
	t0 := time.Now()
	for i := 0; i < b.Req.Count; i++ {
		pk := &packet.Packet{
			Protocol: packet.ProtoUDP,
			SrcIP:    src,
			DstIP:    dst,
			SrcPort:  b.Req.SrcPort,
			DstPort:  b.Req.DstPort,
			TTL:      64,
			Payload:  []byte(b.Req.Payload),
		}
		if !r.traced {
			sw.Process(pk)
			continue
		}
		r.deliver = interval{}
		p0 := time.Now()
		sw.Process(pk)
		proc := interval{p0, time.Now()}
		sp.vswitchSelf += SelfTime(proc, []interval{r.deliver})
		sp.deliver += r.deliver.dur()
		r.kids = append(r.kids, proc)
	}
	if !r.traced {
		r.sim.RunUntil(start + 10*60*netsim.Second)
		return r.out
	}
	q0 := time.Now()
	r.sim.RunUntil(start + 10*60*netsim.Second)
	run := interval{q0, time.Now()}
	sp.run += run.dur()
	root := interval{t0, run.end}
	sp.unattributed += SelfTime(root, append(r.kids, run))
	sp.total += root.dur()
	return r.out
}

// standaloneExec runs the deployed modules' configs outside the
// platform: compiled programs through pipeline.NewExec/RunOne with the
// path-trace sampling the platform arms, the fallback module through
// the click graph walk. It times the pipeline layer alone.
type standaloneExec struct {
	progs  map[uint32]*pipeline.Exec
	graphs map[uint32]*click.Router
	ctx    *click.Context
	pkts   []*packet.Packet
}

func newStandaloneExec() *standaloneExec {
	x := &standaloneExec{progs: make(map[uint32]*pipeline.Exec), graphs: make(map[uint32]*click.Router)}
	x.ctx = &click.Context{
		Now:      func() int64 { return 0 },
		Transmit: func(int, *packet.Packet) {},
	}
	return x
}

func (x *standaloneExec) add(dep *controller.Deployment) error {
	prog, err := pipeline.CompileConfig(dep.Config)
	if err == nil {
		e := pipeline.NewExec(prog)
		e.Now = x.ctx.Now
		e.Transmit = x.ctx.Transmit
		e.EnablePathTrace(telemetry.NewPathRing(0, nil), telemetry.DefaultTraceEvery)
		x.progs[dep.Addr] = e
		return nil
	}
	cfg, err := clicklang.Parse(dep.Config)
	if err != nil {
		return err
	}
	r, err := click.Build(cfg)
	if err != nil {
		return err
	}
	x.graphs[dep.Addr] = r
	return nil
}

// run executes one burst and returns the time spent in the dataplane
// calls (packet construction excluded).
func (x *standaloneExec) run(b *Burst, dst uint32) time.Duration {
	src := packet.MustParseIP(b.Req.Src)
	x.pkts = x.pkts[:0]
	for i := 0; i < b.Req.Count; i++ {
		x.pkts = append(x.pkts, &packet.Packet{
			Protocol: packet.ProtoUDP, SrcIP: src, DstIP: dst,
			SrcPort: b.Req.SrcPort, DstPort: b.Req.DstPort, TTL: 64,
			Payload: []byte(b.Req.Payload),
		})
	}
	t0 := time.Now()
	if e := x.progs[dst]; e != nil {
		for _, pk := range x.pkts {
			_ = e.RunOne(0, pk)
		}
	} else if r := x.graphs[dst]; r != nil {
		for _, pk := range x.pkts {
			_ = r.Inject(x.ctx, 0, pk)
			r.Tick(x.ctx)
		}
	}
	return time.Since(t0)
}
