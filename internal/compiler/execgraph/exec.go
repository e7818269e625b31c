package execgraph

// Execution over the static memory plan. An Executor owns per-batch-item
// states — one arena slice, prebuilt tensor views over the plan's buffer
// offsets and the microkernels' pointer scratch — and prebuilt per-node
// kernels, so a steady-state batched sweep performs zero allocations: no
// scratch pool, no per-call closures, no buffers outside the arena.
//
// A conv-like node is at most two forks. The prep fork writes the source the
// conv reads — the zero-padded input of a tiled conv, the row-phase ×
// column-tap split of a plane-resident one, the subsampled input of a strided
// 1×1 — straight from the producer's output into an arena slot, parallel over
// batch × input channels, once per node. The compute fork runs batch ×
// parts, one per chunk the pool cuts a fork into, each a filter range cut on
// the kept-weight prefix sum (FKW.Offset, the 1×1 CSR row pointer), so chunks
// carry equal MACs even though FKR sorts heavy filters first. Max pools
// split over batch × channels like a prep pass; the other item-local nodes
// (copies, global pools, softmax) parallelize across the batch. Flatten, and
// a standalone ReLU that is the last reader of its input, run on their
// input's own arena slot (planArena).

import (
	"sync"

	"patdnn/internal/compiler/codegen"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

// state is one batch item's execution state: the arena, the per-node tensor
// views aliasing it, and one microkernel scratch per compute part.
type state struct {
	arena   []float32
	out     []*tensor.Tensor // per node: output view over the node's slot
	src     []*tensor.Tensor // per node: prepared-source view, or nil
	scratch []codegen.Scratch
}

func (p *Plan) newState() *state {
	st := &state{
		arena: make([]float32, p.arenaLen),
		out:   make([]*tensor.Tensor, len(p.Nodes)),
		src:   make([]*tensor.Tensor, len(p.Nodes)),
	}
	for i, n := range p.Nodes {
		off := p.bufOffsets[n.slot]
		sz := n.OutC * n.OutH * n.OutW
		st.out[i] = tensor.FromSlice(st.arena[off:off+sz], n.OutC, n.OutH, n.OutW)
		if n.srcSlot >= 0 {
			soff := p.bufOffsets[n.srcSlot]
			data := st.arena[soff : soff+n.sourceLen()]
			if n.Plan != nil && !n.Plan.SupportsFused() {
				// The levels below Packed read a padded tensor.
				c := n.Plan.Conv
				st.src[i] = tensor.FromSlice(data, c.InChannels(), c.InH+2*c.Pad, c.InW+2*c.Pad)
			} else {
				st.src[i] = tensor.FromSlice(data, len(data))
			}
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

	// Prebuilt kernels (one closure per node, built once): prepFns write a
	// conv's source (batch × input channels), runFns execute the node (batch,
	// or batch × parts for conv-like nodes), finish copies the sink into the
	// caller's outputs.
	prepFns  []func(s, e int)
	prepWide []int // input channels per item of the prep fork
	runFns   []func(s, e int)
	wide     []int // ParallelFor domain multiplier: parts for conv-like nodes, channels for pools, else 1
	finish   func(s, e int)

	// parts is the pool chunk count the cuts were made for; cuts[i] holds
	// node i's parts+1 filter boundaries.
	parts int
	cuts  [][]int
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

// ensure grows the per-item state set to n entries and cuts the conv-like
// nodes into parts filter ranges; both allocate only when they change.
func (ex *Executor) ensure(n, parts int) {
	for len(ex.states) < n {
		ex.states = append(ex.states, ex.plan.newState())
	}
	for _, st := range ex.states {
		for len(st.scratch) < parts {
			st.scratch = append(st.scratch, codegen.Scratch{})
		}
	}
	if parts == ex.parts {
		return
	}
	ex.parts = parts
	for i, n := range ex.plan.Nodes {
		if ex.cuts[i] != nil {
			ex.cuts[i] = balancedCuts(n.keptPrefix(), n.OutC, parts, ex.cuts[i][:0])
			ex.wide[i] = parts
		}
	}
}

// Run executes one batch. outs[i] receives the sink node's output for xs[i].
func (ex *Executor) Run(pool *runtime.Pool, xs, outs []*tensor.Tensor) {
	n := len(xs)
	ex.ensure(n, pool.Chunks())
	ex.n, ex.xs, ex.outs = n, xs, outs
	for i := range ex.plan.Nodes {
		if ex.prepFns[i] != nil {
			pool.ParallelFor(n*ex.prepWide[i], ex.prepFns[i])
		}
		if ex.runFns[i] != nil {
			pool.ParallelFor(n*ex.wide[i], ex.runFns[i])
		}
	}
	pool.ParallelFor(n, ex.finish)
	ex.xs, ex.outs = nil, nil
}

// span cuts a chunk [s, e) of a batch × per domain at item boundaries and
// hands body each item's share [a, b).
func (ex *Executor) span(s, e, per int, body func(st *state, a, b int)) {
	for idx := s; idx < e; {
		it, a := idx/per, idx%per
		b := min(a+(e-idx), per)
		body(ex.states[it], a, b)
		idx += b - a
	}
}

// balancedCuts cuts filter positions [0, outC) into parts contiguous ranges
// of near-equal kept weight: boundary k is the position whose prefix lies
// nearest k/parts of the total, so no range exceeds the ideal share by more
// than one filter. A nil prefix, or one with nothing kept, cuts by count.
func balancedCuts(prefix []int32, outC, parts int, dst []int) []int {
	dst = append(dst, 0)
	total := 0
	if prefix != nil {
		total = int(prefix[outC])
	}
	pos := 0
	for k := 1; k < parts; k++ {
		if total == 0 {
			dst = append(dst, k*outC/parts)
			continue
		}
		target := total * k // in units of 1/parts
		for pos < outC && int(prefix[pos+1])*parts < target {
			pos++
		}
		// prefix[pos] < target/parts <= prefix[pos+1]: take the nearer.
		cut := pos + 1
		if pos < outC && target-int(prefix[pos])*parts < int(prefix[pos+1])*parts-target {
			cut = pos
		}
		dst = append(dst, min(max(cut, dst[k-1]), outC))
	}
	return append(dst, outC)
}

// build compiles the per-node kernels once. Each closure captures only the
// executor and its node, reading the per-call batch through ex.n/ex.xs, so
// Run creates no closures and therefore no garbage.
func (ex *Executor) build() {
	p := ex.plan
	ex.prepFns = make([]func(s, e int), len(p.Nodes))
	ex.prepWide = make([]int, len(p.Nodes))
	ex.runFns = make([]func(s, e int), len(p.Nodes))
	ex.wide = make([]int, len(p.Nodes))
	ex.cuts = make([][]int, len(p.Nodes))
	for i, n := range p.Nodes {
		i, n := i, n
		ex.wide[i] = 1
		// items runs body once per batch item of a chunk.
		items := func(body func(st *state)) func(s, e int) {
			return func(s, e int) {
				for it := s; it < e; it++ {
					body(ex.states[it])
				}
			}
		}
		// parts makes node i batch × parts parallel: body gets each item's
		// filter range [from, to) and the first part's scratch. A non-nil
		// cuts[i] is what ensure re-cuts when the pool chunk count changes.
		parts := func(body func(st *state, sc *codegen.Scratch, from, to int)) {
			ex.cuts[i] = []int{}
			ranges := func(st *state, a, b int) {
				body(st, &st.scratch[a], ex.cuts[i][a], ex.cuts[i][b])
			}
			ex.runFns[i] = func(s, e int) { ex.span(s, e, ex.wide[i], ranges) }
		}
		// channels makes a fork over batch × channels.
		channels := func(per int, body func(st *state, c0, c1 int)) func(s, e int) {
			return func(s, e int) { ex.span(s, e, per, body) }
		}
		// prep makes node i's source a parallel pass over batch × channels.
		prep := func(per int, body func(st *state, c0, c1 int)) {
			ex.prepWide[i], ex.prepFns[i] = per, channels(per, body)
		}
		// operands is what a conv's compute reads: its prepared source (or
		// its input as is) and its residual shortcut (or nil).
		operands := func(st *state) (src, short *tensor.Tensor) {
			if src = st.src[i]; src == nil {
				src = st.out[n.Inputs[0]]
			}
			if n.Shortcut >= 0 {
				short = st.out[n.Shortcut]
			}
			return src, short
		}
		switch n.Kind {
		case KindInput:
			ex.runFns[i] = func(s, e int) {
				for it := s; it < e; it++ {
					copy(ex.states[it].out[i].Data, ex.xs[it].Data)
				}
			}

		case KindConv, KindConvT:
			// A transposed conv runs as its stride-1 equivalent conv over its
			// input dilated by the original stride; the prep pass scatters it.
			in0, dil := n.Inputs[0], max(n.DilStride, 1)
			if n.srcSlot >= 0 {
				prep(n.Plan.Conv.InChannels(), func(st *state, c0, c1 int) {
					n.Plan.PrepareSource(st.out[in0], dil, st.src[i].Data, c0, c1)
				})
			}
			parts(func(st *state, sc *codegen.Scratch, from, to int) {
				src, short := operands(st)
				if n.Plan.SupportsFused() {
					n.Plan.ExecuteRangeSource(src.Data, sc, st.out[i], from, to, n.Bias, short, n.ReLU)
				} else {
					n.Plan.ExecuteRangeResidual(src, st.out[i], from, to, n.Bias, short, n.ReLU)
				}
			})

		case KindConv1x1:
			in0 := n.Inputs[0]
			if n.srcSlot >= 0 {
				prep(n.Plan1x1.InC, func(st *state, c0, c1 int) {
					n.Plan1x1.PrepareSource(st.out[in0], st.src[i].Data, c0, c1)
				})
			}
			parts(func(st *state, sc *codegen.Scratch, from, to int) {
				src, short := operands(st)
				n.Plan1x1.ExecuteRangeSource(src.Data, sc, st.out[i], from, to, n.Bias, short, n.ReLU)
			})

		case KindFC:
			in0 := n.Inputs[0]
			parts(func(st *state, _ *codegen.Scratch, from, to int) {
				tensor.FCIntoRange(st.out[i], n.W, st.out[in0], n.Bias, n.ReLU, from, to)
			})

		case KindUpsample:
			in0 := n.Inputs[0]
			ex.runFns[i] = items(func(st *state) { tensor.Upsample2DInto(st.out[in0], n.Scale, st.out[i]) })

		case KindMaxPool:
			in0 := n.Inputs[0]
			ex.wide[i], ex.runFns[i] = n.OutC, channels(n.OutC, func(st *state, c0, c1 int) {
				tensor.MaxPool2DRange(st.out[in0], n.PoolK, st.out[i], c0, c1)
			})

		case KindGAP:
			in0 := n.Inputs[0]
			ex.runFns[i] = items(func(st *state) { tensor.AvgPool2DGlobalInto(st.out[in0], st.out[i]) })

		case KindAdd:
			a, b := n.Inputs[0], n.Inputs[1]
			ex.runFns[i] = items(func(st *state) {
				tensor.AddInto(st.out[a], st.out[b], st.out[i])
				if n.ReLU {
					tensor.ReLU(st.out[i])
				}
			})

		case KindReLU:
			// In place when planArena gave it its input's slot.
			in0 := n.Inputs[0]
			inPlace := n.slot == p.Nodes[in0].slot
			ex.runFns[i] = items(func(st *state) {
				if !inPlace {
					copy(st.out[i].Data, st.out[in0].Data)
				}
				tensor.ReLU(st.out[i])
			})

		case KindFlatten:
			// Always its input's slot: nothing to run.

		case KindSoftmax:
			in0 := n.Inputs[0]
			ex.runFns[i] = items(func(st *state) { tensor.SoftmaxInto(st.out[in0], st.out[i]) })
		}
	}
	out := p.output
	ex.finish = func(s, e int) {
		for it := s; it < e; it++ {
			copy(ex.outs[it].Data, ex.states[it].out[out].Data)
		}
	}
}
