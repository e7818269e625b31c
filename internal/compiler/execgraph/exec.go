package execgraph

// Execution over the static memory plan. An Executor owns one execution
// state — the arena, prebuilt tensor views over the plan's buffer offsets and
// the microkernels' pointer scratch — and prebuilt per-node kernels, so a
// steady-state run performs zero allocations: no scratch pool, no per-call
// closures, no buffers outside the arena. It runs one input at a time.
//
// A conv-like node is at most two forks. The prep fork writes the source the
// conv reads — the zero-padded input of a tiled conv, the row-phase ×
// column-tap split of a plane-resident one, the subsampled input of a strided
// 1×1 — straight from the producer's output into an arena slot, parallel over
// input channels, once per node. The compute fork runs one part per chunk
// the pool cuts a fork into, each a filter range cut on the kept-weight
// prefix sum (FKW.Offset, the 1×1 CSR row pointer), so chunks carry equal
// MACs even though FKR sorts heavy filters first. Max pools split over
// channels like a prep pass; the other nodes (copies, global pools, softmax)
// run on the caller. Flatten, and a standalone ReLU that is the last reader
// of its input, run on their input's own arena slot (planArena).

import (
	"patdnn/internal/compiler/codegen"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

// state is an executor's execution state: the arena, the per-node tensor
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

// Executor executes a Plan. Not safe for concurrent use by multiple
// goroutines: each call site that runs a plan repeatedly owns one.
type Executor struct {
	plan *Plan
	st   *state
	x    *tensor.Tensor // the input being run, read by the input node

	// Prebuilt kernels (one closure per node, built once): prepFns write a
	// conv's source over its input channels, runFns execute the node over
	// its domain — parts for conv-like nodes, channels for pools, else 1.
	prepFns  []func(s, e int)
	prepWide []int // input channels of the prep fork
	runFns   []func(s, e int)
	wide     []int

	// parts is the pool chunk count the cuts were made for; cuts[i] holds
	// node i's parts+1 filter boundaries.
	parts int
	cuts  [][]int
}

// NewExecutor builds an executor for the plan.
func (p *Plan) NewExecutor() *Executor {
	ex := &Executor{plan: p, st: p.newState()}
	ex.build()
	return ex
}

// Execute runs the plan on a new executor: xs are the inputs ([InC,InH,InW]
// each), outs the caller-provided outputs ([OutC,OutH,OutW] each, contents
// overwritten). len(outs) must equal len(xs). A caller that runs the plan
// repeatedly keeps one Executor instead.
func (p *Plan) Execute(pool *runtime.Pool, xs, outs []*tensor.Tensor) {
	p.NewExecutor().Run(pool, xs, outs)
}

// ensure cuts the conv-like nodes into parts filter ranges, one scratch per
// part; it allocates only when parts changes.
func (ex *Executor) ensure(parts int) {
	for len(ex.st.scratch) < parts {
		ex.st.scratch = append(ex.st.scratch, codegen.Scratch{})
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

// Run executes the plan once per input, one input after another: outs[i]
// receives the sink node's output for xs[i].
func (ex *Executor) Run(pool *runtime.Pool, xs, outs []*tensor.Tensor) {
	ex.ensure(pool.Chunks())
	sink := ex.st.out[ex.plan.output].Data
	for k, x := range xs {
		ex.x = x
		for i := range ex.plan.Nodes {
			if ex.prepFns[i] != nil {
				pool.ParallelFor(ex.prepWide[i], ex.prepFns[i])
			}
			if ex.runFns[i] != nil {
				pool.ParallelFor(ex.wide[i], ex.runFns[i])
			}
		}
		copy(outs[k].Data, sink)
	}
	ex.x = nil
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
// executor's state and its node, reading the input through ex.x, so Run
// creates no closures and therefore no garbage.
func (ex *Executor) build() {
	p, st := ex.plan, ex.st
	ex.prepFns = make([]func(s, e int), len(p.Nodes))
	ex.prepWide = make([]int, len(p.Nodes))
	ex.runFns = make([]func(s, e int), len(p.Nodes))
	ex.wide = make([]int, len(p.Nodes))
	ex.cuts = make([][]int, len(p.Nodes))
	for i, n := range p.Nodes {
		ex.wide[i] = 1
		// parts makes node i parallel over filter ranges: body gets a chunk's
		// range [from, to) and its first part's scratch. A non-nil cuts[i] is
		// what ensure re-cuts when the pool chunk count changes.
		parts := func(body func(sc *codegen.Scratch, from, to int)) {
			ex.cuts[i] = []int{}
			ex.runFns[i] = func(s, e int) { body(&st.scratch[s], ex.cuts[i][s], ex.cuts[i][e]) }
		}
		// prep makes node i's source a parallel pass over its input channels.
		prep := func(channels int, body func(c0, c1 int)) {
			ex.prepWide[i], ex.prepFns[i] = channels, body
		}
		// in is the node's (first) input; a conv's compute reads its prepared
		// source, or its input as is, and its residual shortcut, or nil.
		var in, short *tensor.Tensor
		if len(n.Inputs) > 0 {
			in = st.out[n.Inputs[0]]
		}
		src := in
		if n.srcSlot >= 0 {
			src = st.src[i]
		}
		if n.Shortcut >= 0 {
			short = st.out[n.Shortcut]
		}
		switch n.Kind {
		case KindInput:
			ex.runFns[i] = func(int, int) { copy(st.out[i].Data, ex.x.Data) }

		case KindConv, KindConvT:
			// A transposed conv runs as its stride-1 equivalent conv over its
			// input dilated by the original stride; the prep pass scatters it.
			dil := max(n.DilStride, 1)
			if n.srcSlot >= 0 {
				prep(n.Plan.Conv.InChannels(), func(c0, c1 int) {
					n.Plan.PrepareSource(in, dil, src.Data, c0, c1)
				})
			}
			parts(func(sc *codegen.Scratch, from, to int) {
				if n.Plan.SupportsFused() {
					n.Plan.ExecuteRangeSource(src.Data, sc, st.out[i], from, to, n.Bias, short, n.ReLU)
				} else {
					n.Plan.ExecuteRangeResidual(src, st.out[i], from, to, n.Bias, short, n.ReLU)
				}
			})

		case KindConv1x1:
			if n.srcSlot >= 0 {
				prep(n.Plan1x1.InC, func(c0, c1 int) {
					n.Plan1x1.PrepareSource(in, src.Data, c0, c1)
				})
			}
			parts(func(sc *codegen.Scratch, from, to int) {
				n.Plan1x1.ExecuteRangeSource(src.Data, sc, st.out[i], from, to, n.Bias, short, n.ReLU)
			})

		case KindFC:
			parts(func(_ *codegen.Scratch, from, to int) {
				tensor.FCIntoRange(st.out[i], n.W, in, n.Bias, n.ReLU, from, to)
			})

		case KindUpsample:
			ex.runFns[i] = func(int, int) { tensor.Upsample2DInto(in, n.Scale, st.out[i]) }

		case KindMaxPool:
			ex.wide[i], ex.runFns[i] = n.OutC, func(c0, c1 int) {
				tensor.MaxPool2DRange(in, n.PoolK, st.out[i], c0, c1)
			}

		case KindGAP:
			ex.runFns[i] = func(int, int) { tensor.AvgPool2DGlobalInto(in, st.out[i]) }

		case KindAdd:
			b := st.out[n.Inputs[1]]
			ex.runFns[i] = func(int, int) {
				tensor.AddInto(in, b, st.out[i])
				if n.ReLU {
					tensor.ReLU(st.out[i])
				}
			}

		case KindReLU:
			// In place when planArena gave it its input's slot.
			inPlace := n.slot == p.Nodes[n.Inputs[0]].slot
			ex.runFns[i] = func(int, int) {
				if !inPlace {
					copy(st.out[i].Data, in.Data)
				}
				tensor.ReLU(st.out[i])
			}

		case KindFlatten:
			// Always its input's slot: nothing to run.

		case KindSoftmax:
			ex.runFns[i] = func(int, int) { tensor.SoftmaxInto(in, st.out[i]) }
		}
	}
}
