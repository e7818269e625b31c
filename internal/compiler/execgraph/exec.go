package execgraph

// Execution over the static memory plan. An Executor owns per-batch-item
// states — one arena slice plus prebuilt tensor views over the plan's buffer
// offsets — and prebuilt per-node kernels, so a steady-state batched sweep
// performs zero allocations: no scratch-pool Get/Put per layer, no per-call
// closures, no padding buffers materialized outside the arena. Conv-like
// nodes parallelize across batch × output-channels in one ParallelFor (the
// serving engine's batched layer sweep); item-local nodes (pools, copies,
// softmax) parallelize across the batch.

import (
	"sync"

	"patdnn/internal/compiler/codegen"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

// state is one batch item's execution state: the arena and the per-node
// tensor views aliasing it.
type state struct {
	arena []float32
	out   []*tensor.Tensor // per node: output view over the node's slot
	pad   []*tensor.Tensor // per node: padding-scratch view, or nil
}

func (p *Plan) newState() *state {
	st := &state{
		arena: make([]float32, p.arenaLen),
		out:   make([]*tensor.Tensor, len(p.Nodes)),
		pad:   make([]*tensor.Tensor, len(p.Nodes)),
	}
	for i, n := range p.Nodes {
		off := p.bufOffsets[n.slot]
		sz := n.OutC * n.OutH * n.OutW
		st.out[i] = tensor.FromSlice(st.arena[off:off+sz], n.OutC, n.OutH, n.OutW)
		if n.padSlot >= 0 {
			c := n.Plan.Conv
			ph, pw := c.InH+2*c.Pad, c.InW+2*c.Pad
			poff := p.bufOffsets[n.padSlot]
			st.pad[i] = tensor.FromSlice(st.arena[poff:poff+c.InChannels()*ph*pw],
				c.InChannels(), ph, pw)
		}
	}
	return st
}

// Executor executes a Plan over request batches. Not safe for concurrent use
// by multiple goroutines; get one per call site via GetExecutor (pooled) or
// NewExecutor (owned). It grows to the largest batch it has seen and holds
// that state for reuse.
type Executor struct {
	plan   *Plan
	states []*state

	// Per-call inputs, published to the prebuilt node kernels.
	n    int
	xs   []*tensor.Tensor
	outs []*tensor.Tensor

	// Prebuilt kernels (one closure per node, built once): padFns pad the
	// node input into arena scratch (batch-parallel), runFns execute the node
	// (batch- or batch×channel-parallel depending on wide), finish copies the
	// sink into the caller's outputs.
	padFns []func(s, e int)
	runFns []func(s, e int)
	wide   []int // ParallelFor domain multiplier: OutC for conv-like nodes, else 1
	finish func(s, e int)
}

// execPool is a tiny typed sync.Pool wrapper so Plan can embed it without
// exposing sync.Pool in its API surface.
type execPool struct {
	p sync.Pool
}

// NewExecutor builds an executor for the plan.
func (p *Plan) NewExecutor() *Executor {
	ex := &Executor{plan: p}
	ex.build()
	return ex
}

// GetExecutor borrows a pooled executor; return it with PutExecutor. The pool
// caps steady-state allocation at zero once the working set is warm.
func (p *Plan) GetExecutor() *Executor {
	if ex, ok := p.execs.p.Get().(*Executor); ok {
		return ex
	}
	return p.NewExecutor()
}

// PutExecutor returns a borrowed executor to the plan's pool.
func (p *Plan) PutExecutor(ex *Executor) { p.execs.p.Put(ex) }

// Execute runs one batch with a borrowed executor: xs are the inputs
// ([InC,InH,InW] each), outs the caller-provided outputs ([OutC,OutH,OutW]
// each, contents overwritten). len(outs) must equal len(xs).
func (p *Plan) Execute(pool *runtime.Pool, xs, outs []*tensor.Tensor) {
	ex := p.GetExecutor()
	ex.Run(pool, xs, outs)
	p.PutExecutor(ex)
}

// ensure grows the per-item state set to n entries.
func (ex *Executor) ensure(n int) {
	for len(ex.states) < n {
		ex.states = append(ex.states, ex.plan.newState())
	}
}

// Run executes one batch. outs[i] receives the sink node's output for xs[i].
func (ex *Executor) Run(pool *runtime.Pool, xs, outs []*tensor.Tensor) {
	n := len(xs)
	ex.ensure(n)
	ex.n, ex.xs, ex.outs = n, xs, outs
	for i := range ex.plan.Nodes {
		if ex.padFns[i] != nil {
			pool.ParallelFor(n, ex.padFns[i])
		}
		pool.ParallelFor(n*ex.wide[i], ex.runFns[i])
	}
	pool.ParallelFor(n, ex.finish)
	ex.xs, ex.outs = nil, nil
}

// wideRun makes node i batch×channel-parallel: its ParallelFor domain is
// n·outC, and each chunk [s, e) of it is cut at item boundaries into
// per-item channel ranges [from, to) handed to body.
func (ex *Executor) wideRun(i, outC int, body func(st *state, from, to int)) {
	ex.wide[i] = outC
	ex.runFns[i] = func(s, e int) {
		for idx := s; idx < e; {
			it, from := idx/outC, idx%outC
			to := min(from+(e-idx), outC)
			body(ex.states[it], from, to)
			idx += to - from
		}
	}
}

// build compiles the per-node kernels once. Each closure captures only the
// executor and its node, reading the per-call batch through ex.n/ex.xs, so
// Run creates no closures and therefore no garbage.
func (ex *Executor) build() {
	p := ex.plan
	ex.padFns = make([]func(s, e int), len(p.Nodes))
	ex.runFns = make([]func(s, e int), len(p.Nodes))
	ex.wide = make([]int, len(p.Nodes))
	for i, n := range p.Nodes {
		i, n := i, n
		ex.wide[i] = 1
		switch n.Kind {
		case KindInput:
			ex.runFns[i] = func(s, e int) {
				for it := s; it < e; it++ {
					copy(ex.states[it].out[i].Data, ex.xs[it].Data)
				}
			}

		case KindConv, KindConvT:
			// A transposed conv runs as its stride-1 equivalent conv: only the
			// pad step differs, scattering the input into the dilated scratch
			// (always present) instead of padding it.
			in0 := n.Inputs[0]
			switch {
			case n.Kind == KindConvT:
				ex.padFns[i] = func(s, e int) {
					for it := s; it < e; it++ {
						st := ex.states[it]
						codegen.DilatePadInto(st.out[in0], st.pad[i], n.DilStride, n.Plan.Conv.Pad)
					}
				}
			case n.padSlot >= 0:
				ex.padFns[i] = func(s, e int) {
					for it := s; it < e; it++ {
						st := ex.states[it]
						codegen.PadInto(st.out[in0], st.pad[i], n.Plan.Conv.Pad)
					}
				}
			}
			ex.wideRun(i, n.OutC, func(st *state, from, to int) {
				padded := st.out[in0]
				if st.pad[i] != nil {
					padded = st.pad[i]
				}
				if n.Shortcut >= 0 {
					n.Plan.ExecuteRangeResidual(padded, st.out[i], from, to,
						n.Bias, st.out[n.Shortcut], n.ReLU)
				} else {
					n.Plan.ExecuteRangeFused(padded, st.out[i], from, to,
						n.Bias, n.ReLU)
				}
			})

		case KindUpsample:
			in0 := n.Inputs[0]
			ex.runFns[i] = func(s, e int) {
				for it := s; it < e; it++ {
					st := ex.states[it]
					tensor.Upsample2DInto(st.out[in0], n.Scale, st.out[i])
				}
			}

		case KindConv1x1:
			in0 := n.Inputs[0]
			ex.wideRun(i, n.OutC, func(st *state, from, to int) {
				var sc *tensor.Tensor
				if n.Shortcut >= 0 {
					sc = st.out[n.Shortcut]
				}
				n.Plan1x1.ExecuteRangeFused(st.out[in0], st.out[i], from, to,
					n.Bias, sc, n.ReLU)
			})

		case KindFC:
			in0 := n.Inputs[0]
			ex.wideRun(i, n.OutC, func(st *state, from, to int) {
				tensor.FCIntoRange(st.out[i], n.W, st.out[in0], n.Bias, n.ReLU, from, to)
			})

		case KindMaxPool:
			in0 := n.Inputs[0]
			ex.runFns[i] = func(s, e int) {
				for it := s; it < e; it++ {
					st := ex.states[it]
					tensor.MaxPool2DInto(st.out[in0], n.PoolK, st.out[i])
				}
			}

		case KindGAP:
			in0 := n.Inputs[0]
			ex.runFns[i] = func(s, e int) {
				for it := s; it < e; it++ {
					st := ex.states[it]
					tensor.AvgPool2DGlobalInto(st.out[in0], st.out[i])
				}
			}

		case KindAdd:
			a, b := n.Inputs[0], n.Inputs[1]
			ex.runFns[i] = func(s, e int) {
				for it := s; it < e; it++ {
					st := ex.states[it]
					tensor.AddInto(st.out[a], st.out[b], st.out[i])
					if n.ReLU {
						tensor.ReLU(st.out[i])
					}
				}
			}

		case KindReLU:
			in0 := n.Inputs[0]
			ex.runFns[i] = func(s, e int) {
				for it := s; it < e; it++ {
					st := ex.states[it]
					copy(st.out[i].Data, st.out[in0].Data)
					tensor.ReLU(st.out[i])
				}
			}

		case KindFlatten:
			in0 := n.Inputs[0]
			ex.runFns[i] = func(s, e int) {
				for it := s; it < e; it++ {
					st := ex.states[it]
					copy(st.out[i].Data, st.out[in0].Data)
				}
			}

		case KindSoftmax:
			in0 := n.Inputs[0]
			ex.runFns[i] = func(s, e int) {
				for it := s; it < e; it++ {
					st := ex.states[it]
					tensor.SoftmaxInto(st.out[in0], st.out[i])
				}
			}
		}
	}
	out := p.output
	ex.finish = func(s, e int) {
		for it := s; it < e; it++ {
			copy(ex.outs[it].Data, ex.states[it].out[out].Data)
		}
	}
}
