// Package pipeline compiles an admitted click.Router into a flattened
// run-to-completion program: a topologically ordered stage array with
// pre-resolved next-stage indices, executed batch-in/batch-out. On the
// hot path there is no click.Target interface dispatch and no
// element-name map lookup — each stage is a monomorphic kernel closure
// over the concrete element instance, and forwarding is an index into
// the next stage's input buffer.
//
// The compiled program shares element instances with the router it was
// compiled from, so ticker-driven drains (Exec.Tick walks the ordinary
// graph) and checkpoint/restore observe exactly the state the compiled
// stages mutate. Configurations the compiler cannot flatten (pull-path
// wiring, cycles, order- or randomness-dependent branching, unknown
// classes) fail with an UnsupportedError and callers fall back to
// graph-walk dispatch.
package pipeline

import (
	"errors"
	"fmt"

	"github.com/in-net/innet/internal/click"
	"github.com/in-net/innet/internal/clicklang"
	"github.com/in-net/innet/internal/packet"
)

// ErrUnsupported marks configurations the compiler cannot flatten.
// Callers should treat it as "use graph-walk dispatch", not as a
// deployment failure.
var ErrUnsupported = errors.New("unsupported configuration")

// UnsupportedError explains why a configuration cannot be flattened.
type UnsupportedError struct {
	Element string // instance name ("" for whole-graph conditions)
	Class   string
	Reason  string
}

// Error implements error.
func (e *UnsupportedError) Error() string {
	if e.Element == "" {
		return "pipeline: " + e.Reason
	}
	return fmt.Sprintf("pipeline: %s :: %s: %s", e.Element, e.Class, e.Reason)
}

// Unwrap makes errors.Is(err, ErrUnsupported) work.
func (e *UnsupportedError) Unwrap() error { return ErrUnsupported }

// ref is a pre-resolved next-stage pointer: the stage a packet emitted
// on some output port goes to, and the input port it arrives on. A
// negative stage index means the output is unwired and the packet is
// dropped, mirroring click.Base.Out.
type ref struct {
	idx  int32
	port int32
}

var dropRef = ref{idx: -1, port: -1}

// kernel processes the batch queued at a stage. in holds the packets;
// ports holds the per-packet arrival port and is non-nil only for
// stages whose element consumes it (needPort), so the common
// single-input case moves 8 bytes per packet per hop, not 16.
type kernel func(x *Exec, st *stage, in []*packet.Packet, ports []int32)

// stage is one flattened element.
type stage struct {
	el       click.Element
	name     string
	class    string
	idx      int32 // own stage index (fused-run id in path traces)
	next     []ref // per output port; missing ports drop
	out0     ref   // next[0] (or drop), for single-output fast paths
	run      kernel
	needPort bool // element consumes the arrival port (multi-input)

	// Fused linear run (see fuse.go): when ops is non-nil this stage
	// is the head of a maximal single-successor chain and run is
	// runFused — each packet walks the whole op list register-hot,
	// with no intermediate stage buffers. Survivors land at tail.
	ops  []fop
	tail ref
}

// wiring is the slice of click.Base the compiler introspects.
type wiring interface {
	Target(p int) click.Target
	NumWiredOutputs() int
}

// Program is a compiled router. A Program itself is immutable; run it
// through an Exec.
type Program struct {
	router *click.Router
	stages []stage
	srcs   []int32 // stage index per injection point, in decl order
	fused  int     // stages folded into fused runs (diagnostics)
}

// Router returns the router the program was compiled from.
func (p *Program) Router() *click.Router { return p.router }

// NumStages returns the number of flattened stages.
func (p *Program) NumStages() int { return len(p.stages) }

// NumSources returns the number of injection points.
func (p *Program) NumSources() int { return len(p.srcs) }

// NumFused returns how many stages were folded into fused linear runs
// (they still appear in Stages but execute inside their run head).
func (p *Program) NumFused() int { return p.fused }

// Stages returns "name :: class" per stage in execution order, for
// diagnostics.
func (p *Program) Stages() []string {
	out := make([]string, len(p.stages))
	for i := range p.stages {
		out[i] = p.stages[i].name + " :: " + p.stages[i].class
	}
	return out
}

// Compile flattens a built router into a Program. It returns an
// UnsupportedError (unwrapping to ErrUnsupported) when the
// configuration cannot be flattened:
//
//   - pull-path wiring (a Puller output feeding a pull input),
//   - a cycle in the element graph,
//   - an element whose output interleaving depends on arrival order or
//     randomness (RoundRobinSwitch, RandomSample),
//   - self-scheduled sources (TimedSource),
//   - any class without a compiled kernel.
func Compile(r *click.Router) (*Program, error) {
	els := r.Elements()
	if len(els) == 0 {
		return nil, &UnsupportedError{Reason: "empty configuration"}
	}
	idx := make(map[click.Element]int32, len(els))
	for i, el := range els {
		idx[el] = int32(i)
	}

	// Reject pull-path wiring up front: those packets move on the
	// consumer's schedule, which run-to-completion cannot model.
	for _, el := range els {
		w, ok := el.(wiring)
		if !ok {
			return nil, &UnsupportedError{el.Name(), el.Class(), "element does not expose wiring"}
		}
		if _, isPuller := el.(click.Puller); !isPuller {
			continue
		}
		for p := 0; p < w.NumWiredOutputs(); p++ {
			if t := w.Target(p); t.Elem != nil {
				if _, pull := t.Elem.(click.UpstreamSetter); pull {
					return nil, &UnsupportedError{el.Name(), el.Class(), "pull-path wiring (output drained by a pull consumer)"}
				}
			}
		}
	}

	// Kahn topological sort, picking the lowest declaration index at
	// every step so stage order is deterministic. Because every edge
	// goes from an earlier stage to a later one, Exec can run stages
	// in a single forward sweep.
	indeg := make([]int, len(els))
	for _, el := range els {
		w := el.(wiring)
		for p := 0; p < w.NumWiredOutputs(); p++ {
			if t := w.Target(p); t.Elem != nil {
				indeg[idx[t.Elem]]++
			}
		}
	}
	placed := make([]bool, len(els))
	order := make([]int32, 0, len(els))
	for len(order) < len(els) {
		pick := int32(-1)
		for i := range els {
			if !placed[i] && indeg[i] == 0 {
				pick = int32(i)
				break
			}
		}
		if pick < 0 {
			return nil, &UnsupportedError{Reason: "cycle in element graph"}
		}
		placed[pick] = true
		order = append(order, pick)
		w := els[pick].(wiring)
		for p := 0; p < w.NumWiredOutputs(); p++ {
			if t := w.Target(p); t.Elem != nil {
				indeg[idx[t.Elem]]--
			}
		}
	}

	pos := make([]int32, len(els)) // declaration index -> stage index
	for si, di := range order {
		pos[di] = int32(si)
	}

	prog := &Program{router: r, stages: make([]stage, len(els))}
	for si, di := range order {
		el := els[di]
		st := &prog.stages[si]
		st.el = el
		st.idx = int32(si)
		st.name = el.Name()
		st.class = el.Class()
		w := el.(wiring)
		st.next = make([]ref, w.NumWiredOutputs())
		for p := range st.next {
			t := w.Target(p)
			if t.Elem == nil {
				st.next[p] = dropRef
				continue
			}
			st.next[p] = ref{idx: pos[idx[t.Elem]], port: int32(t.Port)}
		}
		st.out0 = dropRef
		if len(st.next) > 0 {
			st.out0 = st.next[0]
		}
		k, needPort, reason := kernelFor(el)
		if k == nil {
			return nil, &UnsupportedError{st.name, st.class, reason}
		}
		st.run = k
		st.needPort = needPort
	}
	prog.fuse()

	// Injection points, in declaration order (same order click.Build
	// collects them, so Exec.Run(i, ...) matches Router.Inject(i, ...)).
	for _, el := range els {
		if inj, ok := el.(click.Injector); ok && inj.InjectionPoint() {
			prog.srcs = append(prog.srcs, pos[idx[el]])
		}
	}
	if len(prog.srcs) == 0 {
		return nil, &UnsupportedError{Reason: "no injection point (FromNetfront)"}
	}
	return prog, nil
}

// CompileConfig parses, builds and compiles a configuration source.
func CompileConfig(src string) (*Program, error) {
	cfg, err := clicklang.Parse(src)
	if err != nil {
		return nil, err
	}
	r, err := click.Build(cfg)
	if err != nil {
		return nil, err
	}
	return Compile(r)
}

// Check reports whether a configuration source can be flattened,
// without keeping the compiled result. Admission uses it to decide
// compiled-vs-fallback before a module is placed.
func Check(src string) error {
	_, err := CompileConfig(src)
	return err
}
