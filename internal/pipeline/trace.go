package pipeline

import (
	"math/bits"
	"strconv"

	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/telemetry"
)

// DropReason classifies why the pipeline discarded a packet — the
// pipeline's slice of the unified drop taxonomy (FORMATS.md §15).
// Kernels tag each drop site with a reason; Exec counts per reason in
// DropsBy so exporters can attribute drops without any extra hot-path
// work beyond one array increment.
type DropReason uint8

const (
	// DropUnwired: pushed to an unconnected output port (or a nil
	// Transmit hook) — the graph simply has nowhere to send it.
	DropUnwired DropReason = iota
	// DropDiscard: consumed by an explicit Discard element.
	DropDiscard
	// DropFilter: refused by a filtering decision (IPFilter,
	// RateLimiter, StatefulFirewall, ChangeEnforcer).
	DropFilter
	// DropNoRoute: no classifier/route/rewriter mapping matched
	// (IPClassifier, LookupIPRoute, IPRewriter).
	DropNoRoute
	// DropOverflow: a bounded Queue was full.
	DropOverflow
	// DropOther: dropped during a ticker-driven graph walk, where the
	// deciding element is not identified.
	DropOther

	// NumDropReasons sizes per-reason counter arrays.
	NumDropReasons = int(iota)
)

var dropReasonNames = [NumDropReasons]string{
	"unwired", "discard", "filter", "no_route", "overflow", "other",
}

// String returns the taxonomy name ("unwired", "filter", ...).
func (r DropReason) String() string { return dropReasonNames[r] }

// DropReasonNames returns the taxonomy names indexed like
// Exec.DropsBy.
func DropReasonNames() []string { return dropReasonNames[:] }

// AffinityHash maps a five-tuple and its exact reverse to the same
// 64-bit hash: the two endpoints are order-normalized before mixing,
// then spread with a Fibonacci multiplier. Path-trace sampling keys
// on it, so a flow and its replies (which stateful elements look up
// under the reversed tuple) are traced together or not at all.
func AffinityHash(t packet.FiveTuple) uint64 {
	a := uint64(t.SrcIP)<<16 | uint64(t.SrcPort)
	b := uint64(t.DstIP)<<16 | uint64(t.DstPort)
	if a > b {
		a, b = b, a
	}
	h := a ^ bits.RotateLeft64(b, 23) ^ uint64(t.Protocol)<<56
	return h * 0x9e3779b97f4a7c15
}

// EnablePathTrace arms flow-sampled path tracing: the head packet of
// each injected batch is hashed with AffinityHash, and a packet whose
// flow lands on the 1-in-every residue is run alone through a traced
// sweep that records one PathHop per stage (seeing through fused runs
// via their op names) into ring. every <= 0 selects
// telemetry.DefaultTraceEvery. Call before the first Run; the Exec's
// owner goroutine must not be running it concurrently.
//
// Hashing only the batch head keeps the attached-but-unsampled cost
// to one hash per batch instead of one per packet; the platform's
// per-packet delivery path (RunOne) makes every packet a head. Sampling stays
// deterministic per flow: a flow whose hash misses the residue is
// never traced, one that matches is traced whenever it heads a batch.
func (x *Exec) EnablePathTrace(ring *telemetry.PathRing, every int) {
	x.ptRing = ring
	if every <= 0 {
		every = telemetry.DefaultTraceEvery
	}
	x.ptEvery = every
}

// traceRun runs one sampled packet to completion with hop recording
// and commits the resulting trace. Splitting the batch around the
// sampled packet is a legal run-to-completion schedule (any batch
// split is), and the head-first order preserves per-flow order.
func (x *Exec) traceRun(si int32, pk *packet.Packet, hash uint64) {
	x.ptCur = pk
	x.ptHops = x.ptHops[:0]
	x.ptIn = 0
	st := &x.prog.stages[si]
	x.runStageTraced(st, pk, 0)
	x.traceSweepFrom(int(si) + 1)
	if x.ptCur != nil {
		// No terminal verdict fired: the packet is parked in a queueing
		// element, to leave on a later tick.
		if n := len(x.ptHops); n > 0 && x.ptHops[n-1].Verdict == "" {
			x.ptHops[n-1].Verdict = "queued"
		}
		x.ptCur = nil
	}
	x.ptRing.Put(telemetry.PathTrace{
		FlowHash:  hash,
		Dataplane: "pipeline",
		Hops:      append([]telemetry.PathHop(nil), x.ptHops...),
	})
}

// runStageTraced executes one stage for the traced packet alone,
// recording hops. Fused heads get a dedicated interpreter pass so the
// hot runFused needs no per-packet trace checks at all.
func (x *Exec) runStageTraced(st *stage, pk *packet.Packet, inPort int32) {
	if st.ops != nil {
		x.runFusedTraced(st, pk, inPort)
		return
	}
	x.ptHops = append(x.ptHops, telemetry.PathHop{
		Elem: st.name, InPort: int(inPort), OutPort: -1, FusedRun: -1,
	})
	x.ptOne[0] = pk
	x.ptPort[0] = inPort
	st.run(x, st, x.ptOne[:1], x.ptPort[:1])
	x.ptOne[0] = nil
}

// traceSweepFrom is sweepFrom with the traced packet isolated: each
// stage buffer runs in arrival order, but the traced packet passes
// through runStageTraced so its kernel pass records hops. Clones
// (Tee) and unrelated packets take the ordinary kernels.
func (x *Exec) traceSweepFrom(i int) {
	stages := x.prog.stages
	for ; i < len(stages); i++ {
		in := x.bufs[i]
		if len(in) == 0 {
			continue
		}
		st := &stages[i]
		ports := x.ports[i]
		ti := -1
		if x.ptCur != nil {
			for k, pk := range in {
				if pk == x.ptCur {
					ti = k
					break
				}
			}
		}
		if ti < 0 {
			st.run(x, st, in, ports)
		} else {
			if ti > 0 {
				sub := ports
				if sub != nil {
					sub = ports[:ti]
				}
				st.run(x, st, in[:ti], sub)
			}
			p := int32(x.ptIn)
			if ports != nil {
				p = ports[ti]
			}
			x.runStageTraced(st, in[ti], p)
			if ti+1 < len(in) {
				sub := ports
				if sub != nil {
					sub = ports[ti+1:]
				}
				st.run(x, st, in[ti+1:], sub)
			}
		}
		x.bufs[i] = in[:0]
		if pp := x.ports[i]; pp != nil {
			x.ports[i] = pp[:0]
		}
	}
}

// runFusedTraced mirrors runFused for a single traced packet,
// appending one hop per fused op (tagged with the run's stage index)
// — the "see through fusion without un-fusing" path. Element state
// updates are identical to runFused's.
func (x *Exec) runFusedTraced(st *stage, pk *packet.Packet, inPort int32) {
	fr := int(st.idx)
	in := int(inPort)
	if len(st.ops) > 0 && st.ops[0].name != st.name {
		// Passthrough head (FromNetfront) contributes no op; record it
		// so the trace starts at the packet's true entry element.
		x.ptHops = append(x.ptHops, telemetry.PathHop{
			Elem: st.name, InPort: in, OutPort: 0, Verdict: "forward", FusedRun: fr,
		})
		in = 0
	}
	for oi := range st.ops {
		op := &st.ops[oi]
		x.ptHops = append(x.ptHops, telemetry.PathHop{
			Elem: op.name, InPort: in, OutPort: -1, FusedRun: fr,
		})
		in = 0
		hop := &x.ptHops[len(x.ptHops)-1]
		switch op.code {
		case opMutate:
			op.fn(x, pk)
		case opCheckIP:
			if pk.TTL == 0 || pk.SrcIP == 0 || pk.DstIP == 0 {
				op.chk.Drops++
				hop.OutPort = 1
				hop.Verdict = "divert"
				x.emitTo(op.alt, pk)
				return
			}
		case opDecTTL:
			if pk.TTL <= 1 {
				op.ttl.Expired++
				hop.OutPort = 1
				hop.Verdict = "divert"
				x.emitTo(op.alt, pk)
				return
			}
			pk.TTL--
		case opCounter:
			op.cnt.Packets++
			op.cnt.Bytes += uint64(pk.Len())
		case opFilter:
			if !op.pred(x, pk) {
				x.dropAs(pk, DropFilter)
				return
			}
		case opPaint:
			pk.Paint = op.pnt.Color
		case opSetTOS:
			pk.TOS = op.tos.TOS
		case opSetTTL:
			pk.TTL = op.sttl.TTL
		case opTx:
			op.tx.TxCount++
			x.transmit(op.tx.Iface, pk)
			return
		case opDiscard:
			op.dsc.Count++
			x.dropAs(pk, DropDiscard)
			return
		}
		hop.OutPort = 0
		hop.Verdict = "forward"
	}
	x.emitTo(st.tail, pk)
}

// traceDropHop closes the traced packet's trace with a drop verdict:
// the open stage-entry hop is patched, or — for drops between stages
// (unwired refs) — a synthetic hop with an empty element name is
// appended. Ends the trace: the packet no longer exists.
func (x *Exec) traceDropHop(reason DropReason) {
	v := "drop:" + reason.String()
	if n := len(x.ptHops); n > 0 && x.ptHops[n-1].Verdict == "" {
		x.ptHops[n-1].Verdict = v
	} else {
		x.ptHops = append(x.ptHops, telemetry.PathHop{
			Elem: "", InPort: x.ptIn, OutPort: -1, Verdict: v, FusedRun: -1,
		})
	}
	x.ptCur = nil
}

// traceTxHop closes the trace with a transmit verdict: the packet
// left the module through iface.
func (x *Exec) traceTxHop(iface int) {
	v := "tx:" + strconv.Itoa(iface)
	if n := len(x.ptHops); n > 0 && x.ptHops[n-1].Verdict == "" {
		x.ptHops[n-1].Verdict = v
	} else {
		x.ptHops = append(x.ptHops, telemetry.PathHop{
			Elem: "", InPort: x.ptIn, OutPort: -1, Verdict: v, FusedRun: -1,
		})
	}
	x.ptCur = nil
}
