// Package vswitch implements the platform's back-end software switch
// (paper §4.3/§5): an OpenFlow-style rule table the controller
// programs so that traffic for a module's address/protocol/port
// reaches its processing module, plus the switch controller that
// detects new flows (a TCP SYN or a first UDP packet) — the trigger
// for on-the-fly VM instantiation.
//
// Each platform runs one switch, and the switch dispatches serially:
// the rule table, the flow cache, the new-flow set and the outage
// buffer sit under one mutex, so packets leave in arrival order
// across all flows. The counters are atomics, so a metrics scrape
// reads them without waiting for dispatch.
package vswitch

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/in-net/innet/internal/packet"
)

// ActionKind says what to do with a matching packet.
type ActionKind int

// Actions.
const (
	// ActDrop discards the packet.
	ActDrop ActionKind = iota
	// ActToModule hands the packet to the platform datapath for the
	// rule's module address.
	ActToModule
	// ActOutput forwards through a switch port (pass-through).
	ActOutput
)

func (a ActionKind) String() string {
	switch a {
	case ActDrop:
		return "drop"
	case ActToModule:
		return "to-module"
	case ActOutput:
		return "output"
	default:
		return "unknown"
	}
}

// Match is a wildcard-capable OpenFlow-style match. Zero fields are
// wildcards (Proto: 0 is an invalid IP protocol in practice, so it
// serves as the wildcard).
type Match struct {
	DstIP   uint32
	Proto   packet.Proto
	DstPort uint16
}

// Covers reports whether the match accepts a packet.
func (m Match) Covers(p *packet.Packet) bool {
	if m.DstIP != 0 && p.DstIP != m.DstIP {
		return false
	}
	if m.Proto != 0 && p.Protocol != m.Proto {
		return false
	}
	if m.DstPort != 0 && p.DstPort != m.DstPort {
		return false
	}
	return true
}

// specificity orders overlapping rules (more fields = higher).
func (m Match) specificity() int {
	n := 0
	if m.DstIP != 0 {
		n++
	}
	if m.Proto != 0 {
		n++
	}
	if m.DstPort != 0 {
		n++
	}
	return n
}

// Rule is one flow-table entry.
type Rule struct {
	Priority int
	Match    Match
	Action   ActionKind
	// Module is the module address for ActToModule.
	Module uint32
	// Port is the output port for ActOutput.
	Port int
	// hits counts matched packets (written under the switch lock, read
	// atomically by Hits; a plain word keeps Rule copyable for the
	// Install(Rule{...}) literal API).
	hits uint64
}

// Hits returns the number of packets this rule matched.
func (r *Rule) Hits() uint64 { return atomic.LoadUint64(&r.hits) }

// Switch is the software switch.
type Switch struct {
	// mu guards the rule table, the down flag, the flow state and the
	// outage buffer. Dispatch, table changes and recovery all take it.
	mu        sync.Mutex
	rules     []*Rule
	down      bool
	flowCache map[packet.FiveTuple]*Rule
	seen      map[packet.FiveTuple]bool
	// buffer parks packets while the platform is down; replayed in
	// arrival order on recovery.
	buffer []*packet.Packet

	// The counters are written under mu but read lock-free by the
	// stats accessors (Misses, DroppedDown, ...), so a telemetry
	// scrape never waits on dispatch. dispatched counts packets that
	// reached a rule action (the switch's throughput counter);
	// buffered mirrors len(buffer) and nrules mirrors len(rules).
	misses, newFlows, droppedDown, redispatched, dispatched atomic.Uint64
	buffered, nrules                                        atomic.Int64

	// OnNewFlow, if set, fires for each new flow (first UDP packet or
	// TCP SYN) before the action applies — the §5 switch controller
	// hook.
	OnNewFlow func(p *packet.Packet)
	// ToModule delivers ActToModule packets (the platform datapath).
	ToModule func(module uint32, p *packet.Packet)
	// Output delivers ActOutput packets.
	Output func(port int, p *packet.Packet)

	// BufferLimit bounds the outage buffer (default 512; overflow is
	// counted in DroppedDown).
	BufferLimit int
}

// New returns an empty switch.
func New() *Switch {
	return &Switch{
		flowCache: make(map[packet.FiveTuple]*Rule),
		seen:      make(map[packet.FiveTuple]bool),
	}
}

// Install adds a rule and reorders the table (priority desc, then
// specificity desc). The flow cache is cleared.
func (s *Switch) Install(r Rule) *Rule {
	s.mu.Lock()
	defer s.mu.Unlock()
	rule := &Rule{
		Priority: r.Priority, Match: r.Match, Action: r.Action,
		Module: r.Module, Port: r.Port,
	}
	s.rules = append(s.rules, rule)
	sort.SliceStable(s.rules, func(i, j int) bool {
		if s.rules[i].Priority != s.rules[j].Priority {
			return s.rules[i].Priority > s.rules[j].Priority
		}
		return s.rules[i].Match.specificity() > s.rules[j].Match.specificity()
	})
	s.tableChangedLocked()
	return rule
}

// Remove deletes a rule.
func (s *Switch) Remove(rule *Rule) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, r := range s.rules {
		if r == rule {
			s.rules = append(s.rules[:i], s.rules[i+1:]...)
			s.tableChangedLocked()
			return nil
		}
	}
	return fmt.Errorf("vswitch: rule not installed")
}

// tableChangedLocked resets the flow cache and the rule count after a
// table change. Caller holds mu.
func (s *Switch) tableChangedLocked() {
	s.flowCache = make(map[packet.FiveTuple]*Rule)
	s.nrules.Store(int64(len(s.rules)))
}

// Rules returns the current table size.
func (s *Switch) Rules() int { return int(s.nrules.Load()) }

// SetDown marks the switch's platform as failed (true) or recovered
// (false). While down, Process buffers up to BufferLimit packets;
// recovery replays the buffer in arrival order before any
// concurrently arriving packet dispatches.
func (s *Switch) SetDown(down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down == down {
		return
	}
	s.down = down
	if down {
		return
	}
	// Replay under the lock: packets racing SetDown wait on it, so
	// everything buffered during the outage dispatches before anything
	// that arrives after recovery.
	buf := s.buffer
	s.buffer = nil
	s.buffered.Store(0)
	for _, p := range buf {
		s.redispatched.Add(1)
		s.dispatch(p)
	}
}

// IsDown reports whether the switch is buffering for a failed
// platform.
func (s *Switch) IsDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// Buffered returns the number of packets parked in the outage buffer.
func (s *Switch) Buffered() int { return int(s.buffered.Load()) }

// Process runs one packet through the table. Safe for concurrent use;
// packets are dispatched in the order their Process calls take the
// switch lock.
func (s *Switch) Process(p *packet.Packet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.processLocked(p)
}

// ProcessBatch runs a burst of packets through the table under one
// lock acquisition. Packets dispatch in batch order, so the ordering
// guarantees are those of calling Process sequentially; the batch only
// amortizes lock traffic. It allocates nothing.
func (s *Switch) ProcessBatch(pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range pkts {
		s.processLocked(p)
	}
}

// processLocked is Process's body after the lock is held: outage
// buffering or dispatch.
func (s *Switch) processLocked(p *packet.Packet) {
	if !s.down {
		s.dispatch(p)
		return
	}
	limit := s.BufferLimit
	if limit <= 0 {
		limit = 512
	}
	if len(s.buffer) >= limit {
		s.droppedDown.Add(1)
		return
	}
	s.buffer = append(s.buffer, p)
	s.buffered.Add(1)
}

// dispatch matches and applies one packet. The caller holds mu.
func (s *Switch) dispatch(p *packet.Packet) {
	t := p.Tuple()
	if !s.seen[t] {
		isNew := p.Protocol == packet.ProtoUDP ||
			(p.Protocol == packet.ProtoTCP && p.TCPFlags&packet.TCPSyn != 0 && p.TCPFlags&packet.TCPAck == 0) ||
			p.Protocol == packet.ProtoICMP
		if isNew {
			s.seen[t] = true
			s.newFlows.Add(1)
			if s.OnNewFlow != nil {
				s.OnNewFlow(p)
			}
		}
	}
	rule := s.flowCache[t]
	if rule == nil {
		for _, r := range s.rules {
			if r.Match.Covers(p) {
				rule = r
				break
			}
		}
		if rule == nil {
			s.misses.Add(1)
			return
		}
		s.flowCache[t] = rule
	}
	s.dispatched.Add(1)
	atomic.AddUint64(&rule.hits, 1)
	switch rule.Action {
	case ActDrop:
	case ActToModule:
		if s.ToModule != nil {
			s.ToModule(rule.Module, p)
		}
	case ActOutput:
		if s.Output != nil {
			s.Output(rule.Port, p)
		}
	}
}

// ExpireFlow forgets a five-tuple (connection teardown), so a later
// packet counts as a new flow again.
func (s *Switch) ExpireFlow(t packet.FiveTuple) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.seen, t)
	delete(s.flowCache, t)
}

// Misses counts packets matching no rule (dropped).
func (s *Switch) Misses() uint64 { return s.misses.Load() }

// NewFlows counts detected flow starts.
func (s *Switch) NewFlows() uint64 { return s.newFlows.Load() }

// DroppedDown counts packets dropped because the outage buffer
// overflowed.
func (s *Switch) DroppedDown() uint64 { return s.droppedDown.Load() }

// Redispatched counts buffered packets replayed after a recovery.
func (s *Switch) Redispatched() uint64 { return s.redispatched.Load() }

// Dispatched counts packets that matched a rule and had its action
// applied — the switch's throughput counter.
func (s *Switch) Dispatched() uint64 { return s.dispatched.Load() }
