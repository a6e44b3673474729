// Fast-path benchmark: before/after numbers for three fast-path
// mechanisms — admission-verdict caching in the controller, per-batch
// locking in the vswitch, and batched packet delivery in the
// dataplane. The rows are real measurements on this machine; the
// JSON form (FastPathJSON) is what CI archives as BENCH_pr3.json.
package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/in-net/innet/internal/controller"
	"github.com/in-net/innet/internal/dataplane"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/security"
	"github.com/in-net/innet/internal/symexec"
	"github.com/in-net/innet/internal/topology"
	"github.com/in-net/innet/internal/vswitch"
)

// BenchFormat is the schema identifier every innet-bench JSON report
// carries in its "format" field, so downstream tooling can detect
// incompatible report layouts (see docs/FORMATS.md §8).
const BenchFormat = "innet-bench/1"

// FastPathResult is the machine-readable form of the fast-path
// benchmark (serialized to BENCH_pr3.json by innet-bench -json).
type FastPathResult struct {
	Format string `json:"format"`

	// Admission: deploy+kill cycles of an identical module, cold
	// (cache disabled) vs warm (cache enabled, steady state).
	AdmissionColdOpsPerSec float64 `json:"admission_cold_ops_per_sec"`
	AdmissionWarmOpsPerSec float64 `json:"admission_warm_ops_per_sec"`
	AdmissionSpeedup       float64 `json:"admission_speedup"`
	CacheHits              uint64  `json:"cache_hits"`
	CacheMisses            uint64  `json:"cache_misses"`

	// Dispatch: concurrent senders on one switch, per-packet Process
	// vs per-burst ProcessBatch.
	DispatchGoroutines   int     `json:"dispatch_goroutines"`
	DispatchPPS          float64 `json:"dispatch_pps"`
	DispatchBatchPPS     float64 `json:"dispatch_batch_pps"`
	DispatchBatchSpeedup float64 `json:"dispatch_batch_speedup"`

	// Dataplane: producer/consumer handoff per packet vs per batch.
	BatchSize           int     `json:"batch_size"`
	DataplanePerPktPPS  float64 `json:"dataplane_per_packet_pps"`
	DataplaneBatchedPPS float64 `json:"dataplane_batched_pps"`
	DataplaneSpeedup    float64 `json:"dataplane_speedup"`

	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

const fastPathModule = `
FromNetfront() ->
IPFilter(allow udp port 1500) ->
IPRewriter(pattern - - 10.1.15.133 - 0 0)
-> TimedUnqueue(120,100)
-> dst::ToNetfront()
`

const fastPathReqs = `
reach from internet udp
-> Batcher:dst:0 dst 10.1.15.133
-> client dst port 1500
const proto && dst port && payload
`

// measureAdmission times deploy+kill cycles of one identical module.
func measureAdmission(cached bool, cycles int) (float64, symexec.CacheStats) {
	topo, err := topology.PaperFig3()
	if err != nil {
		panic(err)
	}
	opts := controller.Options{AdmissionCache: -1}
	if cached {
		opts.AdmissionCache = 0 // default capacity
	}
	c, err := controller.NewWithOptions(topo, "reach from internet tcp src port 80 -> HTTPOptimizer -> client", opts)
	if err != nil {
		panic(err)
	}
	req := controller.Request{
		Tenant:       "bench",
		ModuleName:   "Batcher",
		Config:       fastPathModule,
		Requirements: fastPathReqs,
		Trust:        security.Client,
	}
	// One untimed cycle warms code paths (and, when caching, the
	// cache: every later cycle is the steady re-deploy state).
	dep, err := c.Deploy(req)
	if err != nil {
		panic(err)
	}
	if err := c.Kill(dep.ID); err != nil {
		panic(err)
	}
	start := time.Now()
	for i := 0; i < cycles; i++ {
		dep, err := c.Deploy(req)
		if err != nil {
			panic(err)
		}
		if err := c.Kill(dep.ID); err != nil {
			panic(err)
		}
	}
	elapsed := time.Since(start)
	return float64(cycles) / elapsed.Seconds(), c.CacheStats()
}

// measureDispatch hammers one switch from g goroutines, each goroutine
// owning distinct flows, and returns packets/sec.
func measureDispatch(g, perG int) float64 {
	s := vswitch.New()
	mod := packet.MustParseIP("198.51.100.10")
	s.Install(vswitch.Rule{Priority: 10, Match: vswitch.Match{DstIP: mod}, Action: vswitch.ActToModule, Module: mod})
	s.ToModule = func(uint32, *packet.Packet) {}
	flows := func(w int) []*packet.Packet {
		pkts := make([]*packet.Packet, 16)
		for i := range pkts {
			pkts[i] = &packet.Packet{
				Protocol: packet.ProtoUDP,
				SrcIP:    packet.MustParseIP("8.8.8.8"),
				DstIP:    mod,
				SrcPort:  uint16(1024 + w + i),
				DstPort:  1500, TTL: 64,
			}
		}
		return pkts
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pkts := flows(w)
			for i := 0; i < perG; i++ {
				s.Process(pkts[i%len(pkts)])
			}
		}(w)
	}
	wg.Wait()
	return float64(g*perG) / time.Since(start).Seconds()
}

// measureDispatchBatch is measureDispatch with per-batch locking
// (ProcessBatch) instead of per-packet Process.
func measureDispatchBatch(g, perG, batch int) float64 {
	s := vswitch.New()
	mod := packet.MustParseIP("198.51.100.10")
	s.Install(vswitch.Rule{Priority: 10, Match: vswitch.Match{DstIP: mod}, Action: vswitch.ActToModule, Module: mod})
	s.ToModule = func(uint32, *packet.Packet) {}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pkts := make([]*packet.Packet, batch)
			for i := range pkts {
				pkts[i] = &packet.Packet{
					Protocol: packet.ProtoUDP,
					SrcIP:    packet.MustParseIP("8.8.8.8"),
					DstIP:    mod,
					SrcPort:  uint16(1000 + w*batch + i%16),
					DstPort:  1500, TTL: 64,
				}
			}
			for done := 0; done < perG; done += batch {
				s.ProcessBatch(pkts)
			}
		}(w)
	}
	wg.Wait()
	return float64(g*perG) / time.Since(start).Seconds()
}

// FastPathMeasure runs all three experiments. quick shrinks the
// iteration counts for CI; batch is the dataplane burst size (0 =
// dataplane.DefaultBatchSize).
func FastPathMeasure(quick bool, batch int) *FastPathResult {
	batch = BatchConfig{Size: batch}.BatchSize()
	cycles, pkts, trials := 400, 2_000_000, 3
	if quick {
		cycles, pkts, trials = 120, 500_000, 2
	}

	r := &FastPathResult{
		Format:             BenchFormat,
		BatchSize:          batch,
		DispatchGoroutines: 4,
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		NumCPU:             runtime.NumCPU(),
	}

	cold, _ := measureAdmission(false, cycles)
	warm, stats := measureAdmission(true, cycles)
	r.AdmissionColdOpsPerSec, r.AdmissionWarmOpsPerSec = cold, warm
	r.AdmissionSpeedup = warm / cold
	r.CacheHits, r.CacheMisses = stats.Hits, stats.Misses

	// The dispatch configurations are measured PAIRED: one trial runs
	// both back to back and the trial with the highest aggregate
	// throughput — the one least perturbed by background load — supplies
	// every dispatch figure. Independent best-of per configuration lets
	// a noisy phase land on one side of the ratio only, which on a
	// shared box swings the speedup by ±20%.
	perG := pkts / r.DispatchGoroutines
	type dispatchTrial struct{ one, batch float64 }
	var bestTrial dispatchTrial
	for i := 0; i < trials; i++ {
		tr := dispatchTrial{
			one:   measureDispatch(r.DispatchGoroutines, perG),
			batch: measureDispatchBatch(r.DispatchGoroutines, perG, batch),
		}
		if tr.one+tr.batch > bestTrial.one+bestTrial.batch {
			bestTrial = tr
		}
	}
	r.DispatchPPS = bestTrial.one
	r.DispatchBatchPPS = bestTrial.batch
	r.DispatchBatchSpeedup = r.DispatchBatchPPS / r.DispatchPPS

	run, err := dataplane.NewRunnerString(`FromNetfront() -> CheckIPHeader() -> ToNetfront()`)
	if err != nil {
		panic(err)
	}
	tmpl := dataplane.UDPTemplate(64)
	r.DataplanePerPktPPS = run.MeasureBatchedBest(tmpl, pkts, 1, trials).PPS
	r.DataplaneBatchedPPS = run.MeasureBatchedBest(tmpl, pkts, batch, trials).PPS
	r.DataplaneSpeedup = r.DataplaneBatchedPPS / r.DataplanePerPktPPS
	return r
}

// FastPath measures and renders the fast-path benchmark.
func FastPath(quick bool, batch int) *Table {
	return FastPathTable(FastPathMeasure(quick, batch))
}

// FastPathTable renders an already-measured result as a table.
func FastPathTable(r *FastPathResult) *Table {
	t := &Table{
		ID:      "PR3",
		Title:   "fast-path admission & dispatch (cached symexec, batched vswitch, batched dataplane)",
		Columns: []string{"experiment", "before", "after", "speedup"},
	}
	t.AddRow("admission deploy+kill (ops/s)", f1(r.AdmissionColdOpsPerSec), f1(r.AdmissionWarmOpsPerSec), f2(r.AdmissionSpeedup)+"x")
	t.AddRow(fmt.Sprintf("dispatch %dg batch=%d (Mpps)", r.DispatchGoroutines, r.BatchSize), f2(r.DispatchPPS/1e6), f2(r.DispatchBatchPPS/1e6), f2(r.DispatchBatchSpeedup)+"x")
	t.AddRow(fmt.Sprintf("dataplane batch=%d (Mpps)", r.BatchSize), f2(r.DataplanePerPktPPS/1e6), f2(r.DataplaneBatchedPPS/1e6), f2(r.DataplaneSpeedup)+"x")
	t.Notes = append(t.Notes,
		fmt.Sprintf("admission cache: %d hits / %d misses over the warm run", r.CacheHits, r.CacheMisses),
		fmt.Sprintf("%d senders, GOMAXPROCS=%d, NumCPU=%d", r.DispatchGoroutines, r.GOMAXPROCS, r.NumCPU),
		"before = cache disabled / per-packet Process / per-packet handoff; after = defaults")
	return t
}

// JSON renders the result as the BENCH_pr3.json payload.
func (r *FastPathResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
