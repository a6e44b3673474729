package vswitch

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"github.com/in-net/innet/internal/packet"
)

// TestProcessMatchesNaiveScanQuick checks, with random rule tables
// and random packets, that the switch's (cached) decision always
// equals a naive highest-priority-first scan — i.e. the flow cache
// never changes semantics.
func TestProcessMatchesNaiveScanQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		_ = seed
		s := New()
		var rules []*Rule
		for i, n := 0, 1+rng.Intn(8); i < n; i++ {
			m := Match{}
			if rng.Intn(2) == 0 {
				m.DstIP = uint32(1 + rng.Intn(4))
			}
			if rng.Intn(2) == 0 {
				m.Proto = packet.ProtoUDP
			}
			if rng.Intn(2) == 0 {
				m.DstPort = uint16(1 + rng.Intn(3))
			}
			r := s.Install(Rule{
				Priority: rng.Intn(3),
				Match:    m,
				Action:   ActOutput,
				Port:     i,
			})
			rules = append(rules, r)
		}
		// Naive reference: priority desc, specificity desc, stable.
		naive := func(p *packet.Packet) int {
			best := -1
			bestPrio, bestSpec := -1, -1
			for idx, r := range rules {
				if !r.Match.Covers(p) {
					continue
				}
				spec := r.Match.specificity()
				if r.Priority > bestPrio ||
					(r.Priority == bestPrio && spec > bestSpec) {
					best, bestPrio, bestSpec = idx, r.Priority, spec
					_ = idx
				}
			}
			if best < 0 {
				return -1
			}
			return rules[best].Port
		}
		for trial := 0; trial < 40; trial++ {
			p := &packet.Packet{
				Protocol: []packet.Proto{packet.ProtoUDP, packet.ProtoTCP}[rng.Intn(2)],
				SrcIP:    rng.Uint32(),
				DstIP:    uint32(1 + rng.Intn(5)),
				DstPort:  uint16(rng.Intn(5)),
				SrcPort:  uint16(rng.Intn(65536)),
				TTL:      64,
			}
			got := -1
			s.Output = func(port int, pk *packet.Packet) { got = port }
			got = -1
			s.Process(p)
			// Process twice: the second hit uses the flow cache.
			got2 := -1
			s.Output = func(port int, pk *packet.Packet) { got2 = port }
			s.Process(p)
			want := naive(p)
			if got != want || got2 != want {
				t.Logf("rules=%d pkt=%v got=%d cached=%d want=%d", len(rules), p, got, got2, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Packets in the ordering properties carry (flow, seq) in their
// payload so the delivery callbacks can audit ordering without
// trusting the switch's own bookkeeping.

func flowPacket(flow, seq int, dst uint32) *packet.Packet {
	return &packet.Packet{
		Protocol: packet.ProtoUDP,
		SrcIP:    packet.MustParseIP("8.8.8.8"),
		DstIP:    dst,
		SrcPort:  uint16(1024 + flow),
		DstPort:  1500, TTL: 64,
		Payload: []byte{byte(flow), byte(seq >> 8), byte(seq)},
	}
}

func payloadFlowSeq(p *packet.Packet) (int, int) {
	return int(p.Payload[0]), int(p.Payload[1])<<8 | int(p.Payload[2])
}

// TestPerFlowOrderQuick: under concurrent senders and random
// per-sender schedules, every flow's packets are delivered exactly
// once and in send order, and flow starts are detected exactly once
// per flow. Run with -race in CI, this is also the data-race audit of
// concurrent dispatch.
func TestPerFlowOrderQuick(t *testing.T) {
	mod := packet.MustParseIP("198.51.100.10")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		senders := 2 + rng.Intn(3)
		flowsPer := 1 + rng.Intn(3)
		perFlow := 20 + rng.Intn(60)

		s := New()
		s.Install(Rule{Priority: 1, Match: Match{DstIP: mod}, Action: ActToModule, Module: mod})
		var mu sync.Mutex
		got := make(map[int][]int) // flow -> delivered seqs
		s.ToModule = func(_ uint32, p *packet.Packet) {
			flow, seq := payloadFlowSeq(p)
			mu.Lock()
			got[flow] = append(got[flow], seq)
			mu.Unlock()
		}

		var wg sync.WaitGroup
		for w := 0; w < senders; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each sender owns its flows and interleaves them in a
				// random but per-flow-ordered schedule.
				seqs := make([]int, flowsPer)
				r := rand.New(rand.NewSource(int64(w)*7919 + 1))
				for sent := 0; sent < flowsPer*perFlow; sent++ {
					fl := r.Intn(flowsPer)
					for seqs[fl] >= perFlow {
						fl = (fl + 1) % flowsPer
					}
					flowID := w*flowsPer + fl
					s.Process(flowPacket(flowID, seqs[fl], mod))
					seqs[fl]++
				}
			}(w)
		}
		wg.Wait()

		totalFlows := senders * flowsPer
		if len(got) != totalFlows {
			t.Logf("seed %d: %d flows delivered, want %d", seed, len(got), totalFlows)
			return false
		}
		for flow, seqs := range got {
			if len(seqs) != perFlow {
				t.Logf("seed %d: flow %d delivered %d packets, want %d", seed, flow, len(seqs), perFlow)
				return false
			}
			for i, seq := range seqs {
				if seq != i {
					t.Logf("seed %d: flow %d out of order at %d: got seq %d", seed, flow, i, seq)
					return false
				}
			}
		}
		if int(s.NewFlows()) != totalFlows {
			t.Logf("seed %d: NewFlows = %d, want %d", seed, s.NewFlows(), totalFlows)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestProcessBatchMatchesProcessQuick: ProcessBatch is Process called
// in batch order — same deliveries, same counters.
func TestProcessBatchMatchesProcessQuick(t *testing.T) {
	mod := packet.MustParseIP("198.51.100.10")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		flows := 1 + rng.Intn(6)
		n := 30 + rng.Intn(100)
		batch := 1 + rng.Intn(16)

		build := func() []*packet.Packet {
			r := rand.New(rand.NewSource(seed + 2))
			seqs := make([]int, flows)
			pkts := make([]*packet.Packet, n)
			for i := range pkts {
				fl := r.Intn(flows)
				pkts[i] = flowPacket(fl, seqs[fl], mod)
				seqs[fl]++
			}
			return pkts
		}
		runOne := func(s *Switch, batched bool) (map[int][]int, []uint64) {
			s.Install(Rule{Priority: 1, Match: Match{DstIP: mod}, Action: ActToModule, Module: mod})
			got := make(map[int][]int)
			s.ToModule = func(_ uint32, p *packet.Packet) {
				flow, seq := payloadFlowSeq(p)
				got[flow] = append(got[flow], seq)
			}
			pkts := build()
			if batched {
				for i := 0; i < len(pkts); i += batch {
					end := i + batch
					if end > len(pkts) {
						end = len(pkts)
					}
					s.ProcessBatch(pkts[i:end])
				}
			} else {
				for _, p := range pkts {
					s.Process(p)
				}
			}
			return got, []uint64{s.Misses(), s.NewFlows(), s.DroppedDown(), s.Redispatched()}
		}

		gotSeq, cSeq := runOne(New(), false)
		gotBat, cBat := runOne(New(), true)
		for i := range cSeq {
			if cSeq[i] != cBat[i] {
				t.Logf("seed %d: counter %d: seq=%d batch=%d", seed, i, cSeq[i], cBat[i])
				return false
			}
		}
		for flow, seqs := range gotSeq {
			other := gotBat[flow]
			if len(seqs) != len(other) {
				t.Logf("seed %d: flow %d: seq delivered %d, batch %d", seed, flow, len(seqs), len(other))
				return false
			}
			for i := range seqs {
				if seqs[i] != other[i] {
					t.Logf("seed %d: flow %d diverges at %d", seed, flow, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
