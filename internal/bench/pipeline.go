// Pipeline bench: the compiled run-to-completion dataplane against
// the interface-dispatch graph walk, on the same element chain. Both
// sides measure PURE dispatch — packets are pre-stamped, no producer
// goroutine, no pool traffic — so the ratio isolates what the
// flattening buys: monomorphic kernels and batch sweeps instead of a
// per-packet interface call per element. Serialized to
// BENCH_pipeline.json by innet-bench
// -pipeline-json (docs/FORMATS.md §13).
package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/packet"
	"github.com/in-net/innet/internal/pipeline"
)

// pipelineBenchConfig is the measured chain: header validation,
// marking, TTL, accounting — the common middlebox prefix, all
// flattenable. The per-element work is deliberately cheap (no
// flowspec evaluation) so the measurement isolates DISPATCH cost —
// what the compilation removes — rather than element internals, which
// both modes pay identically.
const pipelineBenchConfig = `
in :: FromNetfront();
chk :: CheckIPHeader;
pnt :: Paint(7);
ttl :: DecIPTTL;
cnt :: Counter;
out :: ToNetfront();
d :: Discard;
in -> chk -> pnt -> ttl -> cnt -> out;
chk[1] -> d;
ttl[1] -> d;
`

// PipelineBatchRow is one burst size's graph-vs-compiled pair.
type PipelineBatchRow struct {
	BatchSize   int     `json:"batch_size"`
	GraphPPS    float64 `json:"graph_pps"`
	CompiledPPS float64 `json:"compiled_pps"`
	Speedup     float64 `json:"speedup"`
}

// PipelineResult is the machine-readable form of the pipeline bench
// (BENCH_pipeline.json).
type PipelineResult struct {
	Format string `json:"format"`
	// Stages is the compiled chain length ("name :: class" per stage).
	Stages []string `json:"stages"`
	// FusedStages counts stages folded into fused linear runs.
	FusedStages int `json:"fused_stages"`

	// Batches sweeps burst sizes on one core: per-packet graph walk vs
	// compiled run-to-completion.
	Batches []PipelineBatchRow `json:"batches"`
	// SingleCoreSpeedup is the compiled/graph ratio at the default
	// burst size — the headline number the CI gate tracks.
	BatchSize         int     `json:"batch_size"`
	GraphPPS          float64 `json:"graph_pps"`
	CompiledPPS       float64 `json:"compiled_pps"`
	SingleCoreSpeedup float64 `json:"single_core_speedup"`

	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

// pipelineFlows builds nflows pre-stamped measurement packets.
func pipelineFlows(nflows int) []*packet.Packet {
	pkts := make([]*packet.Packet, nflows)
	for i := range pkts {
		pkts[i] = &packet.Packet{
			Protocol: packet.ProtoUDP,
			SrcIP:    packet.MustParseIP("8.8.8.8") + uint32(i),
			DstIP:    packet.MustParseIP("198.51.100.10"),
			SrcPort:  uint16(1024 + i),
			DstPort:  1500, TTL: 255,
			Payload: make([]byte, 36),
		}
	}
	return pkts
}

// resetTTLs restores the field the chain mutates, so every
// measurement round sees identical packets. Both modes pay this
// identically.
func resetTTLs(pkts []*packet.Packet) {
	for _, p := range pkts {
		p.TTL = 255
	}
}

// measurePipelineGraph pushes n packets through the router with the
// per-packet Inject walk, in bursts of batch (the burst only shapes
// the reset cadence — the walk itself is per packet).
func measurePipelineGraph(n, batch int) float64 {
	r := click.MustBuildString(pipelineBenchConfig)
	var now int64
	var tx uint64
	ctx := &click.Context{
		Now:      func() int64 { return now },
		Transmit: func(iface int, p *packet.Packet) { tx++ },
	}
	pkts := pipelineFlows(batch)
	rounds := n / batch
	// Warm up.
	for i := 0; i < 4096/batch+1; i++ {
		resetTTLs(pkts)
		for _, pk := range pkts {
			now += 1000
			r.Inject(ctx, 0, pk)
		}
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		resetTTLs(pkts)
		for _, pk := range pkts {
			now += 1000
			r.Inject(ctx, 0, pk)
		}
	}
	return float64(rounds*batch) / time.Since(start).Seconds()
}

// measurePipelineCompiled is the same workload through the compiled
// Exec, batch-in/batch-out.
func measurePipelineCompiled(n, batch int) float64 {
	prog, err := pipeline.CompileConfig(pipelineBenchConfig)
	if err != nil {
		panic(err)
	}
	x := pipeline.NewExec(prog)
	var now int64
	var tx uint64
	x.Now = func() int64 { return now }
	x.Transmit = func(iface int, p *packet.Packet) { tx++ }
	pkts := pipelineFlows(batch)
	rounds := n / batch
	for i := 0; i < 4096/batch+1; i++ {
		resetTTLs(pkts)
		now += int64(1000 * batch)
		x.Run(0, pkts)
	}
	start := time.Now()
	for i := 0; i < rounds; i++ {
		resetTTLs(pkts)
		now += int64(1000 * batch)
		x.Run(0, pkts)
	}
	return float64(rounds*batch) / time.Since(start).Seconds()
}

// PipelineMeasure runs the batch sweep and the headline pair. quick
// shrinks the packet counts; cfg supplies the burst ladder and the
// headline burst size.
func PipelineMeasure(quick bool, cfg BatchConfig) *PipelineResult {
	n := 4_000_000
	trials := 3
	if quick {
		n, trials = 1_000_000, 2
	}
	prog, err := pipeline.CompileConfig(pipelineBenchConfig)
	if err != nil {
		panic(err)
	}
	r := &PipelineResult{
		Format:      BenchFormat,
		Stages:      prog.Stages(),
		FusedStages: prog.NumFused(),
		BatchSize:   cfg.BatchSize(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}

	best := func(f func() float64) float64 {
		var b float64
		for i := 0; i < trials; i++ {
			if v := f(); v > b {
				b = v
			}
		}
		return b
	}

	for _, b := range cfg.BatchSweep() {
		row := PipelineBatchRow{
			BatchSize:   b,
			GraphPPS:    best(func() float64 { return measurePipelineGraph(n, b) }),
			CompiledPPS: best(func() float64 { return measurePipelineCompiled(n, b) }),
		}
		row.Speedup = row.CompiledPPS / row.GraphPPS
		r.Batches = append(r.Batches, row)
	}
	r.GraphPPS = best(func() float64 { return measurePipelineGraph(n, r.BatchSize) })
	r.CompiledPPS = best(func() float64 { return measurePipelineCompiled(n, r.BatchSize) })
	r.SingleCoreSpeedup = r.CompiledPPS / r.GraphPPS
	return r
}

// Pipeline measures and renders the pipeline bench.
func Pipeline(quick bool, cfg BatchConfig) *Table {
	return PipelineTable(PipelineMeasure(quick, cfg))
}

// PipelineTable renders an already-measured result.
func PipelineTable(r *PipelineResult) *Table {
	t := &Table{
		ID:      "PIPELINE",
		Title:   "compiled run-to-completion pipeline vs graph walk (single core)",
		Columns: []string{"experiment", "graph (Mpps)", "compiled (Mpps)", "speedup"},
	}
	for _, row := range r.Batches {
		t.AddRow(fmt.Sprintf("dispatch batch=%d", row.BatchSize),
			f2(row.GraphPPS/1e6), f2(row.CompiledPPS/1e6), f2(row.Speedup)+"x")
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("chain: %d compiled stages (%d fused); headline batch=%d speedup %.2fx", len(r.Stages), r.FusedStages, r.BatchSize, r.SingleCoreSpeedup),
		fmt.Sprintf("GOMAXPROCS=%d NumCPU=%d", r.GOMAXPROCS, r.NumCPU))
	return t
}

// JSON renders the result as the BENCH_pipeline.json payload.
func (r *PipelineResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
