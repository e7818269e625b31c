package main

// The only file of the benchmark that reaches below the patdnn facade. It
// computes the dense reference the served outputs are checked against, and it
// takes the layer ledger of the traced run: the same artifact compiled here
// (modelfile.Read → execgraph.FromFile → execgraph.Compile, engine-default
// level) and each node timed from outside through its public executor, one
// worker, batch 1. Nothing here runs during a timed phase.

import (
	"bytes"
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"time"

	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/compiler/tuner/tunedb"
	"patdnn/internal/model"
	"patdnn/internal/modelfile"
	"patdnn/internal/runtime"
	"patdnn/internal/simd"
	"patdnn/internal/tensor"
)

// kernelArch names the microkernel set packed plans compile against here.
func kernelArch() string { return simd.Arch() }

// loadedArtifact is a .patdnn artifact decoded into the model and parameters
// every compile of it starts from, with the time the two steps took.
type loadedArtifact struct {
	model            *model.Model
	params           *execgraph.Params
	quantBits        int
	readS, fromFileS float64
}

func loadArtifact(name string, artifact []byte) (*loadedArtifact, error) {
	t0 := time.Now()
	mf, err := modelfile.Read(bytes.NewReader(artifact))
	if err != nil {
		return nil, fmt.Errorf("read artifact: %w", err)
	}
	t1 := time.Now()
	m, params, err := execgraph.FromFile(name, mf)
	if err != nil {
		return nil, fmt.Errorf("lower artifact: %w", err)
	}
	return &loadedArtifact{model: m, params: params, quantBits: mf.QuantBits,
		readS: t1.Sub(t0).Seconds(), fromFileS: time.Since(t1).Seconds()}, nil
}

// referenceOutputs runs execgraph.Reference, the dense unfused forward pass,
// on the artifact's own (model, params) for every input, across workers
// goroutines.
func referenceOutputs(name string, artifact []byte, inputs [][]float32, workers int) ([][]float32, error) {
	a, err := loadArtifact(name, artifact)
	if err != nil {
		return nil, err
	}
	m, params := a.model, a.params
	outs := make([][]float32, len(inputs))
	errs := make([]error, len(inputs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range inputs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			x := tensor.FromSlice(inputs[i], m.InC, m.InH, m.InW)
			out, err := execgraph.Reference(m, params, x)
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = out.Data
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
	}
	return outs, nil
}

// nodeRow is one node of the ledger, written to the trace file.
type nodeRow struct {
	Name       string  `json:"name"`
	Kind       string  `json:"kind"`
	Geometry   string  `json:"geometry"`
	Level      string  `json:"level,omitempty"`
	KernelArch string  `json:"kernel_arch,omitempty"`
	Ms         float64 `json:"ms"`
	Share      float64 `json:"share"` // of the sum over nodes
	Reps       int     `json:"reps"`
	MMACs      float64 `json:"mmac"`           // multiply-accumulates on kept weights, millions
	Bytes      int64   `json:"computed_bytes"` // weights + activations in and out, from tensor sizes, not measured
	Stride     int     `json:"stride,omitempty"`
	SIMDTile   bool    `json:"simd_tile,omitempty"`
}

// timeMedian runs fn at least five times, and until minTotal has passed or
// 200 repetitions, and returns the median time of one call in milliseconds.
func timeMedian(minTotal time.Duration, fn func()) (ms float64, reps int) {
	var times []float64
	start := time.Now()
	for len(times) < 5 || (time.Since(start) < minTotal && len(times) < 200) {
		t0 := time.Now()
		fn()
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(times), len(times)
}

// takesSIMDTile reports whether a pattern conv runs the register-tiled
// microkernels in assembly: a packed level, stride 1 (stride 2 and up takes
// the scalar FKW walk), and a kernel set other than the pure-Go one.
func takesSIMDTile(p *codegen.Plan) bool {
	arch := p.KernelArch()
	return p.SupportsFused() && p.Conv.Stride == 1 && arch != "" && arch != "generic"
}

// convBytes is the computed traffic of one pattern conv: its resident weight
// arrays, the padded input and the output (and the shortcut when one is
// fused in).
func convBytes(n *execgraph.Node) int64 {
	c := n.Plan.Conv
	var w int64
	if qb, ok := n.Plan.QuantizedWeightBytes(); ok {
		w = int64(n.Plan.FKW.OverheadBytes()) + qb
	} else {
		w = int64(n.Plan.FKW.TotalBytes(4))
	}
	in := int64(c.InChannels()) * int64(c.InH+2*c.Pad) * int64(c.InW+2*c.Pad)
	out := int64(n.OutC) * int64(n.OutH) * int64(n.OutW)
	if n.Shortcut >= 0 {
		out *= 2
	}
	return w + 4*(in+out)
}

// replayNodes executes the plan node by node on buffers of its own, the way
// execgraph's executor does on its arena, timing each node's public executor
// alone. Padding, copies and the other item-local nodes run untimed here and
// land in execgraph.glue_ms. The last node's output must equal what
// Executor.Run produces for the same input, which checks the replay itself.
func replayNodes(plan *execgraph.Plan, x *tensor.Tensor) ([]nodeRow, error) {
	outs := make([]*tensor.Tensor, len(plan.Nodes))
	rows := make([]nodeRow, 0, len(plan.Nodes))
	for i, n := range plan.Nodes {
		out := tensor.New(n.OutC, n.OutH, n.OutW)
		outs[i] = out
		var in *tensor.Tensor
		if len(n.Inputs) > 0 {
			in = outs[n.Inputs[0]]
		}
		var shortcut *tensor.Tensor
		if n.Shortcut >= 0 {
			shortcut = outs[n.Shortcut]
		}
		row := nodeRow{Name: n.Name, Kind: n.Kind.String(),
			Geometry: fmt.Sprintf("->%dx%dx%d", n.OutC, n.OutH, n.OutW)}
		var run func()
		switch n.Kind {
		case execgraph.KindInput:
			copy(out.Data, x.Data)
		case execgraph.KindConv, execgraph.KindConvT:
			c := n.Plan.Conv
			padded := in
			if n.Kind == execgraph.KindConvT {
				padded = tensor.New(c.InChannels(), c.InH+2*c.Pad, c.InW+2*c.Pad)
				codegen.DilatePadInto(in, padded, n.DilStride, c.Pad)
			} else if c.Pad > 0 {
				padded = tensor.New(c.InChannels(), c.InH+2*c.Pad, c.InW+2*c.Pad)
				codegen.PadInto(in, padded, c.Pad)
			}
			run = func() {
				if shortcut != nil {
					n.Plan.ExecuteRangeResidual(padded, out, 0, n.OutC, n.Bias, shortcut, n.ReLU)
				} else {
					n.Plan.ExecuteRangeFused(padded, out, 0, n.OutC, n.Bias, n.ReLU)
				}
			}
			row.Geometry = fmt.Sprintf("%dx%dx%d k%d s%d p%d ->%dx%dx%d", c.InChannels(), c.InH, c.InW,
				c.KH, c.Stride, c.Pad, n.OutC, n.OutH, n.OutW)
			row.Level = codegen.LevelTag(n.Plan.Level)
			row.KernelArch = n.Plan.KernelArch()
			row.Stride = c.Stride
			row.SIMDTile = takesSIMDTile(n.Plan)
			row.MMACs = float64(c.NNZ()) * float64(n.OutH*n.OutW) / 1e6
			row.Bytes = convBytes(n)
		case execgraph.KindConv1x1:
			p := n.Plan1x1
			run = func() { p.ExecuteRangeFused(in, out, 0, n.OutC, n.Bias, shortcut, n.ReLU) }
			row.Geometry = fmt.Sprintf("%dx%dx%d k1 s%d ->%dx%dx%d", p.InC, p.InH, p.InW, p.Stride, n.OutC, n.OutH, n.OutW)
			row.Stride = p.Stride
			row.MMACs = float64(p.NNZ()) * float64(n.OutH*n.OutW) / 1e6
			act := int64(in.Len() + out.Len())
			if shortcut != nil {
				act += int64(out.Len())
			}
			row.Bytes = p.MemoryBytes() + 4*act
		case execgraph.KindFC:
			run = func() { tensor.FCIntoRange(out, n.W, in, n.Bias, n.ReLU, 0, n.OutC) }
			row.Geometry = fmt.Sprintf("%d ->%d", in.Len(), n.OutC)
			row.MMACs = float64(n.W.Len()) / 1e6
			row.Bytes = 4 * int64(n.W.Len()+in.Len()+out.Len())
		case execgraph.KindMaxPool:
			run = func() { tensor.MaxPool2DInto(in, n.PoolK, out) }
			row.Bytes = 4 * int64(in.Len()+out.Len())
		case execgraph.KindGAP:
			run = func() { tensor.AvgPool2DGlobalInto(in, out) }
			row.Bytes = 4 * int64(in.Len()+out.Len())
		case execgraph.KindUpsample:
			tensor.Upsample2DInto(in, n.Scale, out)
		case execgraph.KindAdd:
			tensor.AddInto(in, outs[n.Inputs[1]], out)
			if n.ReLU {
				tensor.ReLU(out)
			}
		case execgraph.KindReLU:
			copy(out.Data, in.Data)
			tensor.ReLU(out)
		case execgraph.KindFlatten:
			copy(out.Data, in.Data)
		case execgraph.KindSoftmax:
			tensor.SoftmaxInto(in, out)
		default:
			return nil, fmt.Errorf("replay: node %s has kind %s, which the replay does not know", n.Name, n.Kind)
		}
		if run != nil {
			row.Ms, row.Reps = timeMedian(4*time.Millisecond, run)
		}
		rows = append(rows, row)
	}
	want := tensor.New(plan.OutC, plan.OutH, plan.OutW)
	plan.Execute(runtime.NewPool(1), []*tensor.Tensor{x}, []*tensor.Tensor{want})
	got := outs[len(outs)-1]
	if d := got.MaxAbsDiff(want); len(got.Data) != len(want.Data) || d > 1e-5 {
		return nil, fmt.Errorf("replay: node-by-node output differs from Executor.Run by %g", d)
	}
	var total float64
	for _, r := range rows {
		total += r.Ms
	}
	for i := range rows {
		if total > 0 {
			rows[i].Share = rows[i].Ms / total
		}
	}
	return rows, nil
}

// timeExecutor is the median wall time of Executor.Run on a batch of n copies
// of x over workers workers.
func timeExecutor(plan *execgraph.Plan, x *tensor.Tensor, n, workers int) (ms float64, reps int) {
	pool := runtime.NewPool(workers)
	ex := plan.NewExecutor()
	xs := make([]*tensor.Tensor, n)
	outs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = x
		outs[i] = tensor.New(plan.OutC, plan.OutH, plan.OutW)
	}
	ex.Run(pool, xs, outs) // grows the executor to the batch
	return timeMedian(20*time.Millisecond, func() { ex.Run(pool, xs, outs) })
}

// q8OverFP32 times the heaviest stride-1 3×3 conv of the model at PackedQ8
// and at Packed on one padded input and returns q8 ÷ fp32, or 0 when the
// model has no such conv.
func q8OverFP32(m *model.Model, params *execgraph.Params, rng *rand.Rand) (float64, int, error) {
	fp, err := execgraph.Compile(m, params, execgraph.Config{Level: "packed"})
	if err != nil {
		return 0, 0, err
	}
	q8, err := execgraph.Compile(m, params, execgraph.Config{Level: "packedq8"})
	if err != nil {
		return 0, 0, err
	}
	best, bestMACs := -1, 0
	for i, n := range fp.Nodes {
		if n.Kind != execgraph.KindConv || n.Plan.Conv.Stride != 1 {
			continue
		}
		if macs := n.Plan.Conv.NNZ() * n.OutH * n.OutW; macs > bestMACs {
			best, bestMACs = i, macs
		}
	}
	if best < 0 {
		return 0, 0, nil
	}
	time1 := func(n *execgraph.Node) (float64, int) {
		c := n.Plan.Conv
		padded := tensor.New(c.InChannels(), c.InH+2*c.Pad, c.InW+2*c.Pad)
		padded.Randn(rng, 1)
		out := tensor.New(n.OutC, n.OutH, n.OutW)
		return timeMedian(20*time.Millisecond, func() {
			n.Plan.ExecuteRangeFused(padded, out, 0, n.OutC, n.Bias, n.ReLU)
		})
	}
	fpMs, reps := time1(fp.Nodes[best])
	q8Ms, _ := time1(q8.Nodes[best])
	if fpMs == 0 {
		return 0, reps, nil
	}
	return q8Ms / fpMs, reps, nil
}

// takeLedger compiles the artifact here, sets in out the layer metrics that come
// from below the facade, each with the repetitions behind it, and returns the
// per-node rows. seed fixes the replay's input.
func takeLedger(name string, artifact []byte, seed int64, workers int, out *metricSet) ([]nodeRow, error) {
	a, err := loadArtifact(name, artifact)
	if err != nil {
		return nil, err
	}
	m, params := a.model, a.params
	out.set("modelfile.read_s", a.readS, 1)
	out.set("execgraph.fromfile_s", a.fromFileS, 1)

	// The level the engine would pick: auto, or packedq8 for a quantized
	// artifact (serve's compileFromFile rule).
	level := execgraph.LevelAuto
	if a.quantBits >= 2 {
		level = codegen.LevelTag(codegen.PackedQ8)
	}
	goruntime.GC() // the three compiles below start from a collected heap
	t0 := time.Now()
	plan, err := execgraph.Compile(m, params, execgraph.Config{Level: level})
	if err != nil {
		return nil, fmt.Errorf("compile artifact: %w", err)
	}
	out.set("execgraph.compile_s", time.Since(t0).Seconds(), 1)

	// A cold compile against an empty tuning DB, then a warm one that must
	// find every layer in it.
	db := tunedb.Open("")
	goruntime.GC()
	t0 = time.Now()
	if _, err := execgraph.Compile(m, params, execgraph.Config{Level: level, TuneDB: db, TuneSearch: true}); err != nil {
		return nil, fmt.Errorf("cold tuned compile: %w", err)
	}
	out.set("tunedb.cold_compile_s", time.Since(t0).Seconds(), 1)
	goruntime.GC()
	t0 = time.Now()
	warm, err := execgraph.Compile(m, params, execgraph.Config{Level: level, TuneDB: db, TuneSearch: true})
	if err != nil {
		return nil, fmt.Errorf("warm tuned compile: %w", err)
	}
	out.set("tunedb.warm_compile_s", time.Since(t0).Seconds(), 1)
	out.set("tunedb.warm_misses", float64(warm.Tuning.Misses), 1)

	out.set("execgraph.nodes", float64(len(plan.Nodes)), 1)
	out.set("execgraph.fused_ops", float64(plan.Fused.ConvBN+plan.Fused.ConvReLU+plan.Fused.Residual), 1)
	arena, _ := plan.ArenaBytes()
	out.set("execgraph.arena_bytes", float64(arena), 1)

	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(m.InC, m.InH, m.InW)
	x.Randn(rng, 1)
	rows, err := replayNodes(plan, x)
	if err != nil {
		return nil, err
	}

	type sum struct {
		ms, mmac float64
		bytes    int64
		reps     int
	}
	sums := map[string]*sum{"conv3x3": {}, "conv3x3_s2": {}, "conv1x1": {}, "fc": {}, "pool": {}, "convt": {}}
	add := func(key string, r nodeRow) {
		s := sums[key]
		s.ms, s.mmac, s.bytes, s.reps = s.ms+r.Ms, s.mmac+r.MMACs, s.bytes+r.Bytes, s.reps+r.Reps
	}
	var tileMMAC, packed, tuned float64
	for i, r := range rows {
		switch n := plan.Nodes[i]; n.Kind {
		case execgraph.KindConv:
			add("conv3x3", r)
			if r.Stride >= 2 {
				add("conv3x3_s2", r)
			}
			if r.SIMDTile {
				tileMMAC += r.MMACs
			}
			if n.Plan.SupportsFused() {
				packed++
			} else if n.Plan.Level == codegen.Tuned {
				tuned++
			}
		case execgraph.KindConvT:
			add("convt", r)
		case execgraph.KindConv1x1:
			add("conv1x1", r)
		case execgraph.KindFC:
			add("fc", r)
		case execgraph.KindMaxPool, execgraph.KindGAP:
			add("pool", r)
		}
	}
	gflops := func(s *sum) float64 {
		if s.ms == 0 {
			return 0
		}
		return 2 * s.mmac * 1e6 / (s.ms / 1e3) / 1e9
	}
	c3, c1, fc := sums["conv3x3"], sums["conv1x1"], sums["fc"]
	out.set("codegen.conv3x3_ms", c3.ms, c3.reps)
	out.set("codegen.conv3x3_gflops", gflops(c3), c3.reps)
	out.set("codegen.conv3x3_mmac", c3.mmac, 1)
	out.set("codegen.conv3x3_bytes", float64(c3.bytes), 1)
	out.set("codegen.conv3x3_s2_ms", sums["conv3x3_s2"].ms, sums["conv3x3_s2"].reps)
	share := 0.0
	if c3.mmac > 0 {
		share = tileMMAC / c3.mmac
	}
	out.set("simd.tile_mac_share", share, 1)
	out.set("codegen.conv1x1_ms", c1.ms, c1.reps)
	out.set("codegen.conv1x1_gflops", gflops(c1), c1.reps)
	out.set("codegen.conv1x1_mmac", c1.mmac, 1)
	out.set("codegen.conv1x1_bytes", float64(c1.bytes), 1)
	out.set("tensor.fc_ms", fc.ms, fc.reps)
	out.set("tensor.fc_gflops", gflops(fc), fc.reps)
	out.set("tensor.pool_ms", sums["pool"].ms, sums["pool"].reps)
	out.set("codegen.convt_ms", sums["convt"].ms, sums["convt"].reps)
	out.set("codegen.packed_nodes", packed, 1)
	out.set("codegen.tuned_nodes", tuned, 1)

	ratio, reps, err := q8OverFP32(m, params, rng)
	if err != nil {
		return nil, fmt.Errorf("q8 over fp32: %w", err)
	}
	out.set("codegen.q8_over_fp32", ratio, reps)

	b1w1, n1 := timeExecutor(plan, x, 1, 1)
	b1, n2 := timeExecutor(plan, x, 1, workers)
	b8, n3 := timeExecutor(plan, x, 8, workers)
	out.set("execgraph.run_b1_w1_ms", b1w1, n1)
	out.set("execgraph.run_b1_ms", b1, n2)
	out.set("execgraph.run_b8_ms", b8, n3)
	kinds := c3.ms + c1.ms + fc.ms + sums["pool"].ms + sums["convt"].ms
	out.set("execgraph.glue_ms", b1w1-kinds, n1)
	eff := 0.0
	if b1 > 0 {
		eff = b1w1 / (float64(workers) * b1)
	}
	out.set("runtime.parallel_eff", eff, n2)
	return rows, nil
}
