package patdnn

// Integration tests spanning module boundaries: training → pruning →
// compilation → serialization → deserialization → execution, with
// numeric equivalence asserted at every hand-off.

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"patdnn/internal/admm"
	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/compiler/lr"
	"patdnn/internal/compiler/reorder"
	"patdnn/internal/dataset"
	"patdnn/internal/model"
	"patdnn/internal/modelfile"
	"patdnn/internal/nn"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/registry"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

// TestCompileSaveLoadExecute checks the deployment chain: a pruned layer
// compiled, serialized to the compact model format, reloaded, recompiled,
// and executed must produce FP16-close outputs to the original, at every
// optimization level.
func TestCompileSaveLoadExecute(t *testing.T) {
	m := model.VGG16("cifar10")
	rng := rand.New(rand.NewSource(3))
	// Two conv records under the whole VGG topology: the codec does not
	// cross-check the two, and this test executes the records layer by layer.
	file := modelfile.File{LR: &lr.Representation{Model: m.Name, Device: "CPU"}, Net: m}
	var biases [][]float32
	for _, l := range m.ConvLayers()[1:3] {
		c := pruned.Generate(l, pattern.Canonical(8), 3.6, 11, true)
		bias := make([]float32, c.OutC)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		biases = append(biases, bias)
		file.Layers = append(file.Layers, modelfile.Layer{Conv: c, Bias: bias})
		file.LR.Layers = append(file.LR.Layers,
			lr.FromPruned(c, reorder.Build(c), lr.DefaultTuning()))
	}

	var buf bytes.Buffer
	if err := modelfile.Write(&buf, &file); err != nil {
		t.Fatal(err)
	}
	loaded, err := modelfile.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	for i, orig := range file.Layers {
		in := tensor.New(orig.Conv.InC, orig.Conv.InH, orig.Conv.InW)
		in.Randn(rng, 1)
		for _, level := range []codegen.Level{codegen.NoOpt, codegen.Tuned} {
			p1, err := codegen.Compile(orig.Conv, level, lr.DefaultTuning())
			if err != nil {
				t.Fatal(err)
			}
			p2, err := codegen.Compile(loaded.Layers[i].Conv, level, lr.DefaultTuning())
			if err != nil {
				t.Fatal(err)
			}
			want := p1.Execute(in, biases[i])
			got := p2.Execute(in, loaded.Layers[i].Bias)
			// FP16 storage allows small relative error, amplified by the
			// accumulation over up to 64 input channels.
			if d := got.MaxAbsDiff(want); d > 0.05 {
				t.Fatalf("layer %d level %v: save/load diverged by %g", i, level, d)
			}
		}
	}
}

// TestPruneCompileAccuracyChain runs the full algorithmic pipeline on real
// data: dense training, ADMM pruning, per-layer compilation, and whole-network
// inference through the compiled kernels — predictions must match the pruned
// reference network exactly (the compiled path computes the same function).
func TestPruneCompileAccuracyChain(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a CNN")
	}
	cfg := dataset.DefaultConfig()
	cfg.N = 200
	data := dataset.Synthetic(cfg)
	train, test := data.Split(0.8)
	net := nn.SmallCNN(cfg.C, cfg.H, cfg.W, 6, 8, cfg.Classes, 3)
	nn.Train(net, train, nn.NewAdam(0.004), nn.TrainConfig{Epochs: 4, BatchSize: 16, Seed: 1})

	acfg := admm.DefaultConfig(pattern.Canonical(8))
	acfg.Iterations, acfg.EpochsPerIt, acfg.FinetuneEps = 2, 1, 2
	acfg.SkipFirstConv = true
	rep, err := admm.Run(net, train, test, acfg)
	if err != nil {
		t.Fatal(err)
	}

	convs := net.ConvLayers()
	var plans []*codegen.Plan
	for _, pc := range rep.Pruned {
		p, err := codegen.Compile(pc, codegen.Tuned, lr.DefaultTuning())
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	predictCompiled := func(img *tensor.Tensor) int {
		x := img
		for i, plan := range plans {
			x = plan.Execute(x, convs[i].Bias.W.Data)
			tensor.ReLU(x)
			x, _ = tensor.MaxPool2D(x, 2)
		}
		var fc *nn.Dense
		for _, l := range net.Layers {
			if d, ok := l.(*nn.Dense); ok {
				fc = d
			}
		}
		return fc.Forward(x.Reshape(x.Len())).ArgMax()
	}
	for i, img := range test.Images {
		if got, want := predictCompiled(img), net.Predict(img); got != want {
			t.Fatalf("example %d: compiled %d vs reference %d", i, got, want)
		}
	}
}

// trainedPrunedCNN trains SmallCNN on the synthetic workload and ADMM-prunes
// it; test is the held-out split.
func trainedPrunedCNN(t *testing.T) (net *nn.Network, res *PruneResult, test *dataset.Dataset) {
	t.Helper()
	if testing.Short() {
		t.Skip("trains a CNN")
	}
	cfg := dataset.DefaultConfig()
	cfg.N = 160
	train, test := dataset.Synthetic(cfg).Split(0.8)
	net = nn.SmallCNN(cfg.C, cfg.H, cfg.W, 6, 8, cfg.Classes, 3)
	nn.Train(net, train, nn.NewAdam(0.004), nn.TrainConfig{Epochs: 4, BatchSize: 16, Seed: 1})

	pc := DefaultPruneConfig()
	pc.Iterations, pc.EpochsPerIter, pc.FinetuneEps = 2, 1, 2
	res, err := Prune(net, train, test, pc)
	if err != nil {
		t.Fatal(err)
	}
	return net, res, test
}

// requireAgreement demands that predict matches the in-memory pruned network
// on at least 90 % of the held-out examples: FP16 storage may flip a marginal
// prediction, but the vast majority must survive.
func requireAgreement(t *testing.T, net *nn.Network, test *dataset.Dataset, predict func(*tensor.Tensor) int) {
	t.Helper()
	agree := 0
	for _, img := range test.Images {
		if predict(img) == net.Predict(img) {
			agree++
		}
	}
	if agree < test.Len()*9/10 {
		t.Fatalf("only %d/%d predictions survive save/load", agree, test.Len())
	}
}

// TestTrainPruneSaveRun closes the full product loop with REAL weights: a
// trained CNN is ADMM-pruned, saved via the facade as a graph artifact,
// reloaded and compiled by the same path every artifact takes, and must
// classify test examples like the in-memory pruned network — with no layer of
// the network reconstructed outside the artifact.
func TestTrainPruneSaveRun(t *testing.T) {
	net, res, test := trainedPrunedCNN(t)
	var buf bytes.Buffer
	if err := SavePruned(net, res, &buf); err != nil {
		t.Fatal(err)
	}
	mf, err := modelfile.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Layers) != len(res.Layers) || len(mf.Dense) != 1 {
		t.Fatalf("artifact holds %d conv and %d dense records, want %d and the FC layer",
			len(mf.Layers), len(mf.Dense), len(res.Layers))
	}
	m, params, err := execgraph.FromFile("custom", mf)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := execgraph.Compile(m, params, execgraph.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pool := runtime.NewPool(0)
	ex := plan.NewExecutor()
	out := tensor.New(plan.OutC, plan.OutH, plan.OutW)
	requireAgreement(t, net, test, func(img *tensor.Tensor) int {
		ex.Run(pool, []*tensor.Tensor{img}, []*tensor.Tensor{out})
		return out.ArgMax()
	})
}

// opaqueLayer is a layer type SavePruned has no artifact form for.
type opaqueLayer struct{ nn.ReLULayer }

// TestSavePrunedIsAllOrNothing: a network SavePruned cannot describe in full —
// a conv with no pruned record, a record with no conv, a layer type outside
// the artifact's vocabulary — is an error with nothing written, never a file
// that holds part of the network.
func TestSavePrunedIsAllOrNothing(t *testing.T) {
	net, res, _ := trainedPrunedCNN(t)
	withOpaque := &nn.Network{Layers: append(append([]nn.Layer(nil), net.Layers...), &opaqueLayer{})}
	for name, tc := range map[string]struct {
		net    *nn.Network
		layers []*pruned.Conv
	}{
		"conv without a record": {net, res.Layers[:1]},
		"record without a conv": {net, append(res.Layers[:2:2], res.Layers[1])},
		"unknown layer type":    {withOpaque, res.Layers},
	} {
		var buf bytes.Buffer
		if err := SavePruned(tc.net, &PruneResult{Layers: tc.layers}, &buf); err == nil || buf.Len() != 0 {
			t.Fatalf("%s: SavePruned = %v with %d bytes written, want an error and no file", name, err, buf.Len())
		}
	}
}

// TestSavePrunedServesThroughRegistry is the deployment half: the artifact
// SavePruned writes into a models directory is picked up by the registry and
// served by Engine.Infer as a classifier.
func TestSavePrunedServesThroughRegistry(t *testing.T) {
	net, res, test := trainedPrunedCNN(t)
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, registry.FileName("smallcnn", "v1")))
	if err != nil {
		t.Fatal(err)
	}
	if err := SavePruned(net, res, f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineConfig{Workers: 1})
	defer eng.Close()
	if _, err := eng.WithRegistry(RegistryConfig{Dir: dir, Poll: -1}); err != nil {
		t.Fatal(err)
	}
	classes := net.Forward(test.Images[0]).Len()
	requireAgreement(t, net, test, func(img *tensor.Tensor) int {
		resp, err := eng.Infer(context.Background(), InferRequest{Network: "smallcnn", Input: img.Data})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Shape != [3]int{classes, 1, 1} || resp.Version != "v1" {
			t.Fatalf("served shape %v version %q, want [%d,1,1] from v1", resp.Shape, resp.Version, classes)
		}
		return resp.ArgMax
	})
}

// TestFacadeAgainstInternalPipeline cross-checks the public facade against a
// manual assembly of the same pipeline: MobileNet-V2 generated directly by
// execgraph.Generate and run through the dense reference must agree with the
// facade's written, reloaded and executed artifact up to FP16 weight storage.
func TestFacadeAgainstInternalPipeline(t *testing.T) {
	c, err := Compile("MBNT", "cifar10", 8, 3.6)
	if err != nil {
		t.Fatal(err)
	}
	mf, got := runArtifact(t, c)

	m := model.MobileNetV2("cifar10")
	params, err := execgraph.Generate(m, 8, 3.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(m.InC, m.InH, m.InW)
	x.Randn(rand.New(rand.NewSource(7)), 1)
	want, err := execgraph.Reference(m, params, x)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(want); d > 0.05 {
		t.Fatalf("facade artifact diverged from the hand-assembled pipeline by %g", d)
	}
	// Depthwise pattern pruning is active — every 3×3 kernel, depthwise
	// included, ships as a pattern conv record — while LR layers exist only
	// for standard convs.
	conv3, dw3 := 0, 0
	for _, l := range m.ConvLayers() {
		switch {
		case l.KH == 3 && l.Kind == model.DWConv:
			dw3++
		case l.KH == 3:
			conv3++
		}
	}
	if dw3 == 0 || len(mf.Layers) != conv3+dw3 || len(mf.LR.Layers) != conv3 {
		t.Fatalf("artifact has %d conv records and %d LR layers; want %d+%d records, %d LR layers",
			len(mf.Layers), len(mf.LR.Layers), conv3, dw3, conv3)
	}
}
