package main

import (
	"fmt"
	"time"

	"github.com/in-net/innet/internal/api"
	"github.com/in-net/innet/internal/packet"
)

// fwdLayers are the forwarding-side counters read at window edges:
// the daemon's own vswitch and pipeline counters through its metrics
// registry, its drop hub, and the untraced replica's event count.
type fwdLayers struct {
	rt                             runtimeSnap
	dispatched, misses, newFlows   float64
	pipelinePkts                   float64
	filterDrops, platDrops, events float64
}

var fwdFamilies = []string{
	"innet_vswitch_dispatched_total", "innet_vswitch_misses_total",
	"innet_vswitch_new_flows_total", "innet_pipeline_packets_total",
}

// fwdRun is the state of one forward run: the daemon, the stream and,
// in the traced run, the replicas and the standalone pipeline.
type fwdRun struct {
	cfg   runConfig
	s     *fwdSetup
	gen   *ForwardGen
	plain *replica // untraced replica: its time is subtracted from Inject
	trace *replica
	exec  *standaloneExec
	// pending holds first packets of flows opened in untraced blocks,
	// fed to the replicas before the next traced block so they know
	// the same established flows as the daemon.
	pending []Burst

	res                       result
	lat                       []float64
	work                      []float64   // oracle-matched packets per block
	blockLat                  [][]float64 // Inject latencies per block, ms
	okPkts, deniedPkts, pkts  [2]int      // [untraced, traced]
	injectT, plainT, execT    time.Duration
	sp                        fwdSpans
	tracedPkts                int
	fedPkts                   int // pending packets fed to the replicas in traced blocks
	equivalent                bool
	equivChecked, equivFailed int
}

func (f *fwdRun) snap() fwdLayers {
	reg := registryValues(f.s.d.reg, fwdFamilies...)
	drops := f.s.d.drops.Snapshot()
	var plat float64
	for _, n := range drops["platform"] {
		plat += float64(n)
	}
	for _, n := range drops["pipeline"] {
		plat += float64(n)
	}
	l := fwdLayers{
		rt:           readRuntime(),
		dispatched:   reg["innet_vswitch_dispatched_total"],
		misses:       reg["innet_vswitch_misses_total"],
		newFlows:     reg["innet_vswitch_new_flows_total"],
		pipelinePkts: reg["innet_pipeline_packets_total"],
		filterDrops:  float64(drops["pipeline"]["filter"]),
		platDrops:    plat,
	}
	if f.plain != nil {
		l.events = float64(f.plain.sim.Executed)
	}
	return l
}

// warmBursts is the untimed warm-up after the flow pool is primed: a
// fixed amount of work, so the live heap measured after it does not
// depend on speed.
const warmBursts = 60000

// runForward drives the forward workload from one goroutine, so the
// counters read at block edges cover exactly the bursts of the block.
func runForward(cfg runConfig) (*result, error) {
	s, setups, err := setupRepeated(func() (*fwdSetup, error) { return setupForward(cfg.stateRoot) }, (*fwdSetup).close)
	if err != nil {
		return nil, err
	}
	defer s.close()
	f := &fwdRun{cfg: cfg, s: s, gen: NewForwardGen(cfg.seed, s.mods), equivalent: true}
	if cfg.trace {
		if err := f.buildReplicas(); err != nil {
			return nil, err
		}
	}
	for _, b := range f.gen.Prime() {
		f.step(b, 0)
	}
	for i := 0; i < warmBursts; i++ {
		f.step(f.gen.Next(), 0)
	}
	heap := liveHeapMiB()

	n := numBlocks(cfg)
	f.work = make([]float64, n)
	f.blockLat = make([][]float64, n)
	b := blockSet[fwdLayers]{tracing: cfg.trace}
	start := time.Now()
	for i := 0; ; i++ {
		b.snaps = append(b.snaps, f.snap())
		b.edges = append(b.edges, time.Now())
		if i == n {
			break
		}
		blk := i + 1
		if b.traced(blk) {
			for _, p := range f.pending {
				f.fedPkts += p.Req.Count
				f.plain.inject(&p, f.s.mods[p.Mod].ip, nil)
				f.trace.inject(&p, f.s.mods[p.Mod].ip, &fwdSpans{})
			}
			f.pending = f.pending[:0]
		}
		for next := blockEnd(start, blk, n, cfg.seconds); time.Now().Before(next); {
			f.step(f.gen.Next(), blk)
		}
	}
	return f.result(b, setups, heap), nil
}

// buildReplicas registers the deployed modules on both replicas and
// the standalone pipeline, and boots the replicas' VMs.
func (f *fwdRun) buildReplicas() error {
	f.plain = newReplica(f.s.d.platforms, false)
	f.trace = newReplica(f.s.d.platforms, true)
	f.exec = newStandaloneExec()
	for _, m := range f.s.mods {
		var found bool
		for _, dep := range f.s.d.ctl.Deployments() {
			if dep.ModuleName != m.req.ModuleName {
				continue
			}
			found = true
			for _, add := range []func() error{
				func() error { return f.plain.register(dep) },
				func() error { return f.trace.register(dep) },
				func() error { return f.exec.add(dep) },
			} {
				if err := add(); err != nil {
					return fmt.Errorf("replica %s: %w", dep.ModuleName, err)
				}
			}
		}
		if !found {
			return fmt.Errorf("replica: module %s not deployed", m.req.ModuleName)
		}
	}
	return nil
}

// step injects one burst and checks it. Block 0 is the warm-up; in
// traced blocks the burst also runs through both replicas and the
// standalone pipeline, and all outputs must agree.
func (f *fwdRun) step(b Burst, blk int) {
	t0 := time.Now()
	resp, err := f.s.d.sim.Inject(b.Req)
	dt := time.Since(t0)
	ok := err == nil && b.Check(resp)
	dst := f.s.mods[b.Mod].ip
	traced := f.cfg.trace && blk > 0 && blk%2 == 0
	if f.plain != nil && blk > 0 && !traced && b.NewFlow {
		one := b
		one.Req.Count = 1
		f.pending = append(f.pending, one)
	}
	if blk == 0 {
		if f.plain != nil {
			f.plain.inject(&b, dst, nil)
			f.trace.inject(&b, dst, &fwdSpans{})
		}
		f.res.attempted++
		if !ok {
			f.res.failed++
		}
		return
	}
	k := 0
	if traced {
		k = 1
		p0 := time.Now()
		plainOut := f.plain.inject(&b, dst, nil)
		f.plainT += time.Since(p0)
		traceOut := f.trace.inject(&b, dst, &f.sp)
		f.execT += f.exec.run(&b, dst)
		f.injectT += dt
		f.tracedPkts += b.Req.Count
		f.equivChecked++
		if err != nil || !sameEmits(resp, plainOut) || !sameEmits(resp, traceOut) {
			f.equivFailed++
			f.equivalent = false
			ok = false
		}
	} else {
		ms := float64(dt) / 1e6
		f.lat = append(f.lat, ms)
		f.blockLat[blk-1] = append(f.blockLat[blk-1], ms)
	}
	f.res.attempted++
	f.pkts[k] += b.Req.Count
	if !ok {
		f.res.failed++
		return
	}
	f.okPkts[k] += b.Req.Count
	if !traced {
		f.work[blk-1] += float64(b.Req.Count)
	}
	if b.Denied {
		f.deniedPkts[k] += b.Req.Count
	}
}

// sameEmits reports whether the daemon's emitted packets and a
// replica's are the same count with the same 5-tuples, in order.
func sameEmits(resp *api.InjectResponse, tuples []packet.FiveTuple) bool {
	if resp == nil || len(resp.Emitted) != len(tuples) {
		return false
	}
	for i, e := range resp.Emitted {
		t := tuples[i]
		if e.Src != packet.IPString(t.SrcIP) || e.Dst != packet.IPString(t.DstIP) ||
			e.SrcPort != t.SrcPort || e.DstPort != t.DstPort || e.Proto != t.Protocol.String() {
			return false
		}
	}
	return true
}

func (f *fwdRun) result(b blockSet[fwdLayers], setups []float64, heap float64) *result {
	res := &f.res
	res.correct = true
	// Every denied packet must show up as exactly one filter drop.
	var filterDrops float64
	var d fwdLayers
	var rt runtimeSnap
	b.each(false, func(a, z fwdLayers) {
		rt.add(a.rt, z.rt)
		d.dispatched += z.dispatched - a.dispatched
		d.misses += z.misses - a.misses
		d.newFlows += z.newFlows - a.newFlows
		d.pipelinePkts += z.pipelinePkts - a.pipelinePkts
		d.platDrops += z.platDrops - a.platDrops
	})
	var events float64
	for i := 1; i < len(b.snaps); i++ {
		filterDrops += b.snaps[i].filterDrops - b.snaps[i-1].filterDrops
		events += b.snaps[i].events - b.snaps[i-1].events
	}
	denied := float64(f.deniedPkts[0] + f.deniedPkts[1])
	if filterDrops != denied {
		res.note("filter drops %v != denied packets %v", filterDrops, denied)
		res.correct = false
		res.failed++
	}
	if !f.equivalent {
		res.note("replica equivalence failed on %d of %d traced bursts", f.equivFailed, f.equivChecked)
		res.correct = false
	}
	untracedS := b.seconds(false)
	pps := float64(f.okPkts[0]) / untracedS
	tail := TailPercentile(len(f.lat))
	res.note("%d packets in %d bursts in %.1fs untraced: %.0f pps; Inject p50 %.4f ms, p90 %.4f ms, p%g %.4f ms (n=%d)",
		f.pkts[0], len(f.lat), untracedS, pps, Median(f.lat), Percentile(f.lat, 90), tail, Percentile(f.lat, tail), len(f.lat))
	if !f.cfg.trace {
		res.note("packets per block: %v", f.work)
		endToEnd(res, setups, b, f.work, f.blockLat, heap)
		return res
	}
	perPkt := func(x time.Duration) float64 { return ratio(float64(x), float64(f.tracedPkts)) }
	apiSelf := f.injectT - f.plainT
	tracedTotal := apiSelf + f.sp.total
	untracedPerPkt := 1e9 / pps
	pkts := float64(f.pkts[0])
	layers := map[string]float64{
		"api.inject_self_ns_per_pkt":  perPkt(apiSelf),
		"vswitch.self_ns_per_pkt":     perPkt(f.sp.vswitchSelf),
		"platform.deliver_ns_per_pkt": perPkt(f.sp.deliver),
		"netsim.sched_ns_per_pkt":     perPkt(f.sp.run - f.execT),
		"pipeline.exec_ns_per_pkt":    perPkt(f.execT),
	}
	res.set(layers)
	res.set(map[string]float64{
		"vswitch.new_flow_share":     ratio(d.newFlows, d.dispatched),
		"vswitch.miss_share":         ratio(d.misses, d.dispatched+d.misses),
		"platform.fastpath_share":    ratio(d.pipelinePkts, d.dispatched),
		"platform.drops_per_kpkt":    1000 * ratio(d.platDrops, pkts),
		"netsim.events_per_pkt":      ratio(events, float64(f.tracedPkts+f.fedPkts)),
		"netsim.run_self_ns_per_pkt": perPkt(f.sp.run),
		"runtime.gc_cpu_fraction":    rt.gcFraction(),
		"runtime.alloc_bytes_per_op": ratio(rt.allocBytes, pkts),
		"runtime.allocs_per_op":      ratio(rt.allocObjects, pkts),
		"trace.overhead_pct":         100 * (perPkt(tracedTotal)/untracedPerPkt - 1),
		"trace.unattributed_pct":     100 * ratio(float64(f.sp.unattributed), float64(tracedTotal)),
		"failed_ratio":               ratio(float64(res.failed), float64(res.attempted)),
	})
	res.accounting(layers, perPkt(f.sp.unattributed), perPkt(tracedTotal), untracedPerPkt, "ns per packet")
	res.note("replica equivalence: %d traced bursts, %d mismatches", f.equivChecked, f.equivFailed)
	return res
}
