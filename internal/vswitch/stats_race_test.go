package vswitch

import (
	"io"
	"sync"
	"testing"

	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/telemetry"
)

// TestStatsRaceWithDispatch: DroppedDown and the other counter
// accessors must be safe — and under -race, provably so — while
// ProcessBatch and Process are concurrently mutating the counters,
// including during an outage (buffering/overflow) and recovery
// (replay). The accessors are wait-free atomics, so this also pins
// that a stats scrape cannot deadlock or serialize against dispatch.
func TestStatsRaceWithDispatch(t *testing.T) {
	s := New()
	s.BufferLimit = 64
	mod := packet.MustParseIP("198.51.100.10")
	s.Install(Rule{Priority: 10, Match: Match{DstIP: mod}, Action: ActToModule, Module: mod})
	s.ToModule = func(uint32, *packet.Packet) {}

	reg := telemetry.New()
	s.RegisterMetrics(reg, "platform", "race-test")

	const (
		senders = 4
		rounds  = 300
		batch   = 32
	)
	var writers sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < senders; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			pkts := make([]*packet.Packet, batch)
			for i := range pkts {
				pkts[i] = &packet.Packet{
					Protocol: packet.ProtoUDP,
					SrcIP:    packet.MustParseIP("8.8.8.8"),
					DstIP:    mod,
					SrcPort:  uint16(1024 + w*batch + i),
					DstPort:  1500, TTL: 64,
				}
			}
			<-start
			for i := 0; i < rounds; i++ {
				if i%2 == 0 {
					s.ProcessBatch(pkts)
				} else {
					for _, p := range pkts {
						s.Process(p)
					}
				}
			}
		}(w)
	}
	// One goroutine flaps the outage state so buffering, overflow
	// drops and replay all run concurrently with the stats readers.
	writers.Add(1)
	go func() {
		defer writers.Done()
		<-start
		for i := 0; i < 50; i++ {
			s.SetDown(true)
			s.SetDown(false)
		}
	}()
	// Stats reader: raw accessors and a full telemetry scrape,
	// hammered until every writer is done.
	stopReader := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		<-start
		for {
			select {
			case <-stopReader:
				return
			default:
			}
			_ = s.Rules()
			_ = s.DroppedDown()
			_ = s.Misses()
			_ = s.NewFlows()
			_ = s.Redispatched()
			_ = s.Dispatched()
			_ = s.Buffered()
			_ = reg.WritePrometheus(io.Discard)
		}
	}()
	close(start)
	writers.Wait()
	close(stopReader)
	reader.Wait()
}
