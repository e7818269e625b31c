package patdnn

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/dataset"
	"patdnn/internal/modelfile"
	"patdnn/internal/nn"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

// runArtifact drives the shipped path — WriteModelGraph → modelfile.Read →
// execgraph.FromFile → Compile → one Execute — and requires the output to
// match the dense reference on the loaded parameters. It returns the parsed
// file and the executed output.
func runArtifact(t *testing.T, c *Compiled) (*modelfile.File, *tensor.Tensor) {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteModelGraph(&buf); err != nil {
		t.Fatal(err)
	}
	mf, err := modelfile.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m, params, err := execgraph.FromFile(mf.LR.Model, mf)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := execgraph.Compile(m, params, execgraph.Config{Level: execgraph.LevelAuto})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(plan.InC, plan.InH, plan.InW)
	x.Randn(rand.New(rand.NewSource(7)), 1)
	out := tensor.New(plan.OutC, plan.OutH, plan.OutW)
	plan.Execute(runtime.NewPool(2), []*tensor.Tensor{x}, []*tensor.Tensor{out})
	want, err := execgraph.Reference(m, params, x)
	if err != nil {
		t.Fatal(err)
	}
	if d := out.MaxAbsDiff(want); d > 1e-4 {
		t.Fatalf("%s: executed artifact diverged from dense reference by %g", c.Model.Short, d)
	}
	return mf, out
}

// shortAndFull returns the SR generator always and VGG-16 outside -short
// (CIFAR-10 variants: milliseconds and seconds of generation respectively).
func shortAndFull() []string {
	if testing.Short() {
		return []string{"SR"}
	}
	return []string{"SR", "VGG"}
}

func TestCompileAndRun(t *testing.T) {
	for _, network := range shortAndFull() {
		c, err := Compile(network, "cifar10", 8, 3.6)
		if err != nil {
			t.Fatal(err)
		}
		mf, _ := runArtifact(t, c)
		if mf.Net == nil || len(mf.Layers) == 0 {
			t.Fatalf("%s: artifact carries no topology or no pattern convs", network)
		}
	}
}

// TestLRJSONIsTheArtifactLR: the LR that is printed is the LR that is
// shipped, byte for byte.
func TestLRJSONIsTheArtifactLR(t *testing.T) {
	for _, network := range shortAndFull() {
		c, err := Compile(network, "cifar10", 8, 3.6)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.WriteModelGraph(&buf); err != nil {
			t.Fatal(err)
		}
		mf, err := modelfile.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		shipped, err := mf.LR.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		printed, err := c.LRJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(printed, shipped) {
			t.Fatalf("%s: LRJSON (%d B) differs from the artifact's LR section (%d B)",
				network, len(printed), len(shipped))
		}
		if !bytes.Contains(printed, []byte(`"layout": "FKW"`)) {
			t.Fatalf("%s: LR JSON missing FKW layout", network)
		}
	}
}

// TestCompileDoesNotGenerate: Compile is a description. A malloc count, not
// a clock: generating VGG-16 takes millions of allocations.
func TestCompileDoesNotGenerate(t *testing.T) {
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Compile("VGG", "cifar10", 8, 3.6); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 10000 {
		t.Fatalf("Compile made %.0f allocations; it must not generate the network", allocs)
	}
	// A network the executable IR rejects still compiles (the description is
	// valid); the outputs carry ValidateModel's error.
	c, err := Compile("RNT", "imagenet", 8, 3.6)
	if err != nil {
		t.Fatal(err)
	}
	want := execgraph.ValidateModel(c.Model)
	if want == nil {
		t.Fatal("ValidateModel accepted the 7x7-stem ResNet")
	}
	if err := c.WriteModelGraph(io.Discard); err == nil || err.Error() != want.Error() {
		t.Fatalf("WriteModelGraph error = %v, want %v", err, want)
	}
	if _, err := c.LRJSON(); err == nil || err.Error() != want.Error() {
		t.Fatalf("LRJSON error = %v, want %v", err, want)
	}
}

// TestGraphArtifactSizes pins the benchmark's artifact_bytes (sizes, not
// hashes, so an FMA-fusing arm64 build cannot flip it).
func TestGraphArtifactSizes(t *testing.T) {
	sizes := map[string]int{"SR": 23071, "VGG": 5789182}
	for _, network := range shortAndFull() {
		c, err := Compile(network, "cifar10", 8, 3.6)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.WriteModelGraph(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != sizes[network] {
			t.Fatalf("%s/cifar10 artifact is %d B, want %d", network, buf.Len(), sizes[network])
		}
	}
}

func TestCompileErrors(t *testing.T) {
	for _, tc := range []struct {
		name, network, ds string
		patterns          int
		conn              float64
	}{
		{"unknown network", "AlexNet", "imagenet", 8, 3.6},
		{"zero patterns", "SR", "cifar10", 0, 3.6},
		{"negative patterns", "SR", "cifar10", -3, 3.6},
		{"NaN conn", "SR", "cifar10", 8, math.NaN()},
		{"+Inf conn", "SR", "cifar10", 8, math.Inf(1)},
		{"-Inf conn", "SR", "cifar10", 8, math.Inf(-1)},
		{"zero conn", "SR", "cifar10", 8, 0},
		{"negative conn", "SR", "cifar10", 8, -2},
	} {
		if _, err := Compile(tc.network, tc.ds, tc.patterns, tc.conn); err == nil {
			t.Errorf("%s: Compile(%q, %q, %d, %v) returned no error",
				tc.name, tc.network, tc.ds, tc.patterns, tc.conn)
		}
	}
	// conn <= 1 still means "connectivity pruning off".
	if _, err := Compile("SR", "cifar10", 1, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPruneEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a CNN")
	}
	cfg := dataset.DefaultConfig()
	cfg.N = 200
	data := dataset.Synthetic(cfg)
	train, test := data.Split(0.8)
	net := nn.SmallCNN(cfg.C, cfg.H, cfg.W, 6, 8, cfg.Classes, 3)
	nn.Train(net, train, nn.NewAdam(0.004), nn.TrainConfig{Epochs: 4, BatchSize: 16, Seed: 1})

	pc := DefaultPruneConfig()
	pc.Iterations, pc.EpochsPerIter, pc.FinetuneEps = 2, 1, 2
	res, err := Prune(net, train, test, pc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compression < 2 {
		t.Fatalf("compression %.2f too low", res.Compression)
	}
	if len(res.Layers) == 0 {
		t.Fatal("no pruned layers returned")
	}
	for _, l := range res.Layers {
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExperimentsRegistryAndRun(t *testing.T) {
	if len(Experiments()) < 15 {
		t.Fatalf("experiments = %d", len(Experiments()))
	}
	out, err := RunExperiment("table6")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "L9") {
		t.Fatalf("table6 output missing L9:\n%s", out)
	}
	if _, err := RunExperiment("figure99"); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}
