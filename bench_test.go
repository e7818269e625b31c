package patdnn

// Benchmark harness: one testing.B benchmark per paper table and figure
// (regenerating the artifact through internal/bench), plus host wall-clock
// microbenchmarks of the *real* convolution kernels — dense direct, Winograd,
// CSR sparse, and the four PatDNN code-generation levels — so the compiler's
// claims are grounded in measured time, not only in the device model.
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"patdnn/internal/baseline"
	"patdnn/internal/bench"
	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/compiler/lr"
	"patdnn/internal/model"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/runtime"
	"patdnn/internal/serve"
	"patdnn/internal/sparse"
	"patdnn/internal/tensor"
)

// benchArtifact regenerates one experiment per iteration.
func benchArtifact(b *testing.B, id string) {
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if t := e.Run(); len(t.Rows) == 0 {
			b.Fatal("empty artifact")
		}
	}
}

func BenchmarkTable1(b *testing.B)          { benchArtifact(b, "table1") }
func BenchmarkTable2(b *testing.B)          { benchArtifact(b, "table2") }
func BenchmarkTable3(b *testing.B)          { benchArtifact(b, "table3") }
func BenchmarkTable4(b *testing.B)          { benchArtifact(b, "table4") }
func BenchmarkTable5(b *testing.B)          { benchArtifact(b, "table5") }
func BenchmarkTable6(b *testing.B)          { benchArtifact(b, "table6") }
func BenchmarkTable7(b *testing.B)          { benchArtifact(b, "table7") }
func BenchmarkFigure12(b *testing.B)        { benchArtifact(b, "figure12") }
func BenchmarkFigure13(b *testing.B)        { benchArtifact(b, "figure13") }
func BenchmarkFigure14(b *testing.B)        { benchArtifact(b, "figure14") }
func BenchmarkFigure15(b *testing.B)        { benchArtifact(b, "figure15") }
func BenchmarkFigure16(b *testing.B)        { benchArtifact(b, "figure16") }
func BenchmarkFigure17(b *testing.B)        { benchArtifact(b, "figure17") }
func BenchmarkFigure18(b *testing.B)        { benchArtifact(b, "figure18") }
func BenchmarkAblationTuner(b *testing.B)   { benchArtifact(b, "ablation-tuner") }
func BenchmarkAblationStorage(b *testing.B) { benchArtifact(b, "ablation-storage") }

// --- Host kernel microbenchmarks ---
//
// A VGG-L4-shaped layer scaled to a 28x28 feature map so a benchmark
// iteration stays in the millisecond range: 128 filters, 128 channels,
// 3x3 kernels, 8 patterns, 3.6x connectivity.

type hostFixture struct {
	conv  *pruned.Conv
	dense *tensor.Tensor // same weights, dense layout (pruned values)
	input *tensor.Tensor
	bias  *tensor.Tensor
}

func newHostFixture() *hostFixture {
	rng := rand.New(rand.NewSource(7))
	const outC, inC, h, w = 128, 128, 28, 28
	weights := tensor.New(outC, inC, 3, 3)
	weights.Randn(rng, 0.1)
	geom := pruned.ConvGeom{Stride: 1, Pad: 1, InH: h, InW: w, OutH: h, OutW: w}
	kernels := float64(outC) * float64(inC)
	keep := int(kernels / 3.6)
	c := pruned.FromWeights("l4-host", weights, pattern.Canonical(8), keep, geom)
	input := tensor.New(inC, h, w)
	input.Randn(rng, 1)
	bias := tensor.New(outC)
	bias.Randn(rng, 0.1)
	return &hostFixture{conv: c, dense: c.Weights, input: input, bias: bias}
}

var hostFix = newHostFixture()

func BenchmarkHostDenseDirect(b *testing.B) {
	spec := tensor.ConvSpec{Stride: 1, Pad: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		baseline.DenseDirectConv(hostFix.input, hostFix.dense, hostFix.bias, spec)
	}
}

func BenchmarkHostWinograd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		baseline.WinogradConv3x3(hostFix.input, hostFix.dense, hostFix.bias)
	}
}

func BenchmarkHostCSRSparse(b *testing.B) {
	csr := sparse.FromConvWeights(hostFix.dense)
	spec := tensor.ConvSpec{Stride: 1, Pad: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.CSRConv(hostFix.input, csr, hostFix.bias, 3, 3, spec)
	}
}

func benchHostLevel(b *testing.B, level codegen.Level) {
	plan, err := codegen.Compile(hostFix.conv, level, lr.DefaultTuning())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Execute(hostFix.input, hostFix.bias.Data)
	}
}

func BenchmarkHostPatternNoOpt(b *testing.B)   { benchHostLevel(b, codegen.NoOpt) }
func BenchmarkHostPatternReorder(b *testing.B) { benchHostLevel(b, codegen.Reorder) }
func BenchmarkHostPatternLRE(b *testing.B)     { benchHostLevel(b, codegen.ReorderLRE) }
func BenchmarkHostPatternTuned(b *testing.B)   { benchHostLevel(b, codegen.Tuned) }
func BenchmarkHostPatternPacked(b *testing.B)  { benchHostLevel(b, codegen.Packed) }

// --- Tuned vs Packed head-to-head ---
//
// The acceptance sweep for the FKW-direct backend: both levels compile the
// same VGG-style bench layer as a one-conv model and run it through the graph
// executor, exactly as the serving engine would (filter ranges across the
// pool, arena-resident padding, fused bias+ReLU epilogue); the only variable
// is the kernel generation. ns/op is per inference.

// hostExecutor compiles the bench layer at level as a one-conv model:
// input → conv+bias → ReLU, the ReLU fused into the conv epilogue.
func hostExecutor(b *testing.B, level codegen.Level) *execgraph.Executor {
	c := hostFix.conv
	m := &model.Model{Name: c.Name, Short: c.Name, InC: c.InC, InH: c.InH, InW: c.InW, Layers: []*model.Layer{
		{Name: "input", Kind: model.Input, OutC: c.InC, OutH: c.InH, OutW: c.InW},
		{Name: c.Name, Kind: model.Conv, InC: c.InC, OutC: c.OutC, KH: c.KH, KW: c.KW,
			Stride: c.Stride, Pad: c.Pad, Groups: 1,
			InH: c.InH, InW: c.InW, OutH: c.OutH, OutW: c.OutW, HasBias: true},
		{Name: "relu", Kind: model.ReLU, InC: c.OutC, OutC: c.OutC},
	}}
	params := &execgraph.Params{Convs: map[string]*execgraph.ConvParams{
		c.Name: {Conv: c, Bias: hostFix.bias.Data},
	}}
	plan, err := execgraph.Compile(m, params, execgraph.Config{Level: codegen.LevelTag(level)})
	if err != nil {
		b.Fatal(err)
	}
	return plan.NewExecutor()
}

func benchExecutorLevel(b *testing.B, level codegen.Level) {
	ex := hostExecutor(b, level)
	pool := runtime.NewPool(0)
	c := hostFix.conv
	inputs := []*tensor.Tensor{hostFix.input}
	outs := []*tensor.Tensor{tensor.New(c.OutC, c.OutH, c.OutW)}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ex.Run(pool, inputs, outs)
	}
}

func BenchmarkTuned(b *testing.B)  { benchExecutorLevel(b, codegen.Tuned) }
func BenchmarkPacked(b *testing.B) { benchExecutorLevel(b, codegen.Packed) }

func BenchmarkHostFKWEncode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sparse.Encode(hostFix.conv, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving engine benchmarks ---
//
// benchEngineThroughput drives the concurrent inference engine with waves of
// `clients` simultaneous VGG-16/CIFAR requests; ns/op is per request, so
// inverse throughput. The worker sweep shows throughput scaling with pool
// size.
func benchEngineThroughput(b *testing.B, workers, clients int) {
	eng := serve.New(serve.Config{Workers: workers})
	defer eng.Close()
	if err := eng.Preload("VGG", "cifar10"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	input := make([]float32, 3*32*32)
	for i := range input {
		input[i] = float32(rng.NormFloat64())
	}
	req := serve.Request{Network: "VGG", Dataset: "cifar10", Input: input}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := clients
		if b.N-done < n {
			n = b.N - done
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := eng.Infer(context.Background(), req); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
		done += n
	}
}

func BenchmarkServeWorkers1(b *testing.B) { benchEngineThroughput(b, 1, 8) }
func BenchmarkServeWorkers2(b *testing.B) { benchEngineThroughput(b, 2, 8) }
func BenchmarkServeWorkers4(b *testing.B) { benchEngineThroughput(b, 4, 8) }
func BenchmarkServeWorkers8(b *testing.B) { benchEngineThroughput(b, 8, 8) }

// BenchmarkHostVGGCifarConvStack times one real inference through all 13
// pruned VGG-16/CIFAR conv layers (8 patterns, 3.6x connectivity) executed by
// the tuned dense-layout kernels — the closest host analogue to the paper's
// end-to-end measurement protocol.
func BenchmarkHostVGGCifarConvStack(b *testing.B) {
	m := model.VGG16("cifar10")
	set := pattern.Canonical(8)
	type stage struct {
		plan *codegen.Plan
		pool bool // max-pool after this conv (end of VGG block)
	}
	var stages []stage
	convs := m.ConvLayers()
	blockEnds := map[int]bool{1: true, 3: true, 6: true, 9: true, 12: true}
	for i, l := range convs {
		c := pruned.Generate(l, set, 3.6, int64(500+i), true)
		plan, err := codegen.Compile(c, codegen.Tuned, lr.DefaultTuning())
		if err != nil {
			b.Fatal(err)
		}
		stages = append(stages, stage{plan, blockEnds[i]})
	}
	rng := rand.New(rand.NewSource(1))
	input := tensor.New(3, 32, 32)
	input.Randn(rng, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := input
		for _, s := range stages {
			x = s.plan.Execute(x, nil)
			tensor.ReLU(x)
			if s.pool {
				x, _ = tensor.MaxPool2D(x, 2)
			}
		}
	}
}
