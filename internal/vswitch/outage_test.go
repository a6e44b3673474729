package vswitch

import (
	"testing"

	"github.com/in-net/innet/internal/packet"
)

func TestDownBuffersAndRedispatchesInOrder(t *testing.T) {
	s := New()
	var ports []uint16
	s.Output = func(port int, p *packet.Packet) { ports = append(ports, p.DstPort) }
	s.Install(Rule{Match: Match{}, Action: ActOutput, Port: 1})

	s.SetDown(true)
	for i := 0; i < 3; i++ {
		s.Process(udpPkt("10.0.0.1", uint16(1000+i)))
	}
	if len(ports) != 0 {
		t.Fatalf("processed %d packets while down", len(ports))
	}
	if s.Buffered() != 3 {
		t.Fatalf("buffered = %d", s.Buffered())
	}

	s.SetDown(false)
	if s.Buffered() != 0 {
		t.Errorf("buffered = %d after recovery", s.Buffered())
	}
	if s.Redispatched() != 3 {
		t.Errorf("redispatched = %d", s.Redispatched())
	}
	// Arrival order preserved.
	want := []uint16{1000, 1001, 1002}
	if len(ports) != 3 {
		t.Fatalf("delivered %d", len(ports))
	}
	for i, p := range want {
		if ports[i] != p {
			t.Errorf("ports[%d] = %d, want %d", i, ports[i], p)
		}
	}
}

func TestDownBufferBounded(t *testing.T) {
	s := New()
	s.BufferLimit = 2
	s.Install(Rule{Match: Match{}, Action: ActDrop})
	s.SetDown(true)
	for i := 0; i < 5; i++ {
		s.Process(udpPkt("10.0.0.1", 53))
	}
	if s.Buffered() != 2 {
		t.Errorf("buffered = %d, want 2", s.Buffered())
	}
	if s.DroppedDown() != 3 {
		t.Errorf("DroppedDown = %d, want 3", s.DroppedDown())
	}
	s.SetDown(false)
	if s.Buffered() != 0 || s.Redispatched() != 2 {
		t.Errorf("after recovery: buffered = %d, redispatched = %d, want 0, 2", s.Buffered(), s.Redispatched())
	}
	// A second outage accumulates: nothing from the first is counted
	// again, and the buffer bound applies afresh.
	s.SetDown(true)
	for i := 0; i < 3; i++ {
		s.Process(udpPkt("10.0.0.1", 53))
	}
	s.SetDown(false)
	if s.Redispatched() != 4 || s.DroppedDown() != 4 {
		t.Errorf("after second outage: redispatched = %d, dropped = %d, want 4, 4", s.Redispatched(), s.DroppedDown())
	}
}

func TestSetDownIdempotent(t *testing.T) {
	s := New()
	n := 0
	s.Output = func(int, *packet.Packet) { n++ }
	s.Install(Rule{Match: Match{}, Action: ActOutput, Port: 1})
	s.SetDown(true)
	s.SetDown(true)
	s.Process(udpPkt("10.0.0.1", 53))
	s.SetDown(false)
	s.SetDown(false) // second recovery must not replay again
	if n != 1 || s.Redispatched() != 1 {
		t.Errorf("delivered=%d redispatched=%d", n, s.Redispatched())
	}
	if s.IsDown() {
		t.Error("still down")
	}
}
