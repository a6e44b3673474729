package vswitch

import (
	"github.com/in-net/innet/internal/telemetry"
)

// RegisterMetrics folds the switch's counters into a telemetry
// registry under the innet_vswitch_* families. The extra label pairs
// (e.g. "platform", name) distinguish switches when several are
// registered. Registration costs nothing on the dispatch path: the
// counters are the atomics dispatch already maintains, read by
// callback at scrape time.
func (s *Switch) RegisterMetrics(r *telemetry.Registry, labelPairs ...string) {
	if r == nil {
		return
	}
	r.CounterFunc("innet_vswitch_dispatched_total",
		"Packets that matched a rule and had its action applied.",
		func() float64 { return float64(s.Dispatched()) }, labelPairs...)
	r.CounterFunc("innet_vswitch_misses_total",
		"Packets matching no flow-table rule (dropped).",
		func() float64 { return float64(s.Misses()) }, labelPairs...)
	r.CounterFunc("innet_vswitch_new_flows_total",
		"Flow starts detected by the switch controller (first UDP packet or TCP SYN).",
		func() float64 { return float64(s.NewFlows()) }, labelPairs...)
	r.CounterFunc("innet_vswitch_dropped_down_total",
		"Packets dropped because the outage buffer overflowed while the platform was down.",
		func() float64 { return float64(s.DroppedDown()) }, labelPairs...)
	r.CounterFunc("innet_vswitch_redispatched_total",
		"Outage-buffered packets replayed after platform recovery.",
		func() float64 { return float64(s.Redispatched()) }, labelPairs...)
	r.GaugeFunc("innet_vswitch_buffered",
		"Packets currently parked in the outage buffer.",
		func() float64 { return float64(s.Buffered()) }, labelPairs...)
	r.GaugeFunc("innet_vswitch_rules",
		"Flow-table rules currently installed.",
		func() float64 { return float64(s.Rules()) }, labelPairs...)
}

// RegisterDrops wires the switch's two drop classes into the unified
// drop-attribution hub under site "vswitch": flow-table misses
// (no_rule) and outage-buffer overflow (buffer_overflow). The readers
// are the lock-free counters dispatch already maintains.
func (s *Switch) RegisterDrops(d *telemetry.Drops) {
	if d == nil {
		return
	}
	d.Source("vswitch", "no_rule", s.Misses)
	d.Source("vswitch", "buffer_overflow", s.DroppedDown)
}
