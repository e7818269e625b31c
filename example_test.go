package patdnn_test

// Testable godoc examples for the public API. They print invariants rather
// than raw floats so `go test` keeps them honest on every platform.

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	"patdnn"
	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/dataset"
	"patdnn/internal/modelfile"
	"patdnn/internal/nn"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

// ExamplePrune runs the ADMM pattern+connectivity pruning pipeline on a tiny
// CNN over the synthetic training substrate.
func ExamplePrune() {
	cfg := dataset.DefaultConfig()
	cfg.N = 120
	data := dataset.Synthetic(cfg)
	train, test := data.Split(0.8)
	net := nn.SmallCNN(cfg.C, cfg.H, cfg.W, 6, 8, cfg.Classes, 3)
	nn.Train(net, train, nn.NewAdam(0.004), nn.TrainConfig{Epochs: 2, BatchSize: 16, Seed: 1})

	pc := patdnn.DefaultPruneConfig()
	pc.Iterations, pc.EpochsPerIter, pc.FinetuneEps = 1, 1, 1
	res, err := patdnn.Prune(net, train, test, pc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("pruned layers:", len(res.Layers) > 0)
	fmt.Println("compressed:", res.Compression > 1.5)
	fmt.Println("accuracy sane:", res.AccuracyAfter >= 0 && res.AccuracyAfter <= 100)
	// Output:
	// pruned layers: true
	// compressed: true
	// accuracy sane: true
}

// ExampleCompile describes the SR generator at the paper's operating point,
// writes its deployable artifact, and runs the reloaded artifact once through
// the graph executor against the dense reference.
func ExampleCompile() {
	c, err := patdnn.Compile("SR", "cifar10", 8, 3.6)
	if err != nil {
		log.Fatal(err)
	}
	var artifact bytes.Buffer
	if err := c.WriteModelGraph(&artifact); err != nil {
		log.Fatal(err)
	}
	printed, err := c.LRJSON()
	if err != nil {
		log.Fatal(err)
	}

	mf, err := modelfile.Read(&artifact)
	if err != nil {
		log.Fatal(err)
	}
	shipped, err := mf.LR.Marshal()
	if err != nil {
		log.Fatal(err)
	}
	m, params, err := execgraph.FromFile(mf.LR.Model, mf)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := execgraph.Compile(m, params, execgraph.Config{Level: execgraph.LevelAuto})
	if err != nil {
		log.Fatal(err)
	}
	x := tensor.New(plan.InC, plan.InH, plan.InW)
	x.Randn(rand.New(rand.NewSource(1)), 1)
	out := tensor.New(plan.OutC, plan.OutH, plan.OutW)
	plan.Execute(runtime.NewPool(1), []*tensor.Tensor{x}, []*tensor.Tensor{out})
	want, err := execgraph.Reference(m, params, x)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("model:", c.Model.Name)
	fmt.Println("printed LR is the shipped LR:", bytes.Equal(printed, shipped))
	fmt.Println("matches dense reference:", out.MaxAbsDiff(want) <= 1e-4)
	// Output:
	// model: SR-Gen
	// printed LR is the shipped LR: true
	// matches dense reference: true
}

// ExampleEngine_Infer embeds the concurrent inference engine: the model
// compiles once into the plan cache, then requests execute as batched layer
// sweeps over the worker pool.
func ExampleEngine_Infer() {
	eng := patdnn.NewEngine(patdnn.EngineConfig{MaxBatch: 4})
	defer eng.Close()

	// nil Input selects a deterministic synthetic image.
	resp, err := eng.Infer(context.Background(),
		patdnn.InferRequest{Network: "VGG", Dataset: "cifar10"})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("output:", resp.Shape)
	fmt.Println("served in batch:", resp.BatchSize >= 1)
	fmt.Println("compiled once:", eng.Stats().PlanCompiles == 1)
	// Output:
	// output: [10 1 1]
	// served in batch: true
	// compiled once: true
}
