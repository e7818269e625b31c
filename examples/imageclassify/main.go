// Imageclassify runs the paper's full pipeline end to end with real
// computation at laptop scale: train a CNN on the synthetic image
// classification workload, prune it with ADMM (patterns + connectivity),
// compile the pruned conv layers through FKR/FKW/LRE code generation, and
// execute real inference with the compiled kernels — verifying that the
// compiled sparse network predicts identically to the pruned reference and
// measuring the host-side speedup of the optimization levels.
package main

import (
	"fmt"
	"log"

	"patdnn"
	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/lr"
	"patdnn/internal/dataset"
	"patdnn/internal/nn"
	"patdnn/internal/runtime"
	"patdnn/internal/tensor"
)

func main() {
	cfg := dataset.DefaultConfig()
	cfg.N = 400
	data := dataset.Synthetic(cfg)
	train, test := data.Split(0.8)
	fmt.Printf("synthetic dataset: %d train / %d test\n", train.Len(), test.Len())

	net := nn.SmallCNN(cfg.C, cfg.H, cfg.W, 8, 12, cfg.Classes, 3)
	nn.Train(net, train, nn.NewAdam(0.004), nn.TrainConfig{Epochs: 6, BatchSize: 16, Seed: 1})
	fmt.Printf("dense accuracy: %.1f%%\n", 100*net.Accuracy(test))

	res, err := patdnn.Prune(net, train, test, patdnn.DefaultPruneConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pruned accuracy: %.1f%% at %.2fx CONV compression\n",
		100*res.AccuracyAfter, res.Compression)

	// Compile each pruned conv layer and run real inference through the
	// compiled kernels, comparing against the pruned network's predictions.
	convs := net.ConvLayers()
	plans := make(map[codegen.Level][]*codegen.Plan)
	for _, level := range []codegen.Level{codegen.NoOpt, codegen.Tuned} {
		for _, pc := range res.Layers {
			plan, err := codegen.Compile(pc, level, lr.DefaultTuning())
			if err != nil {
				log.Fatal(err)
			}
			plans[level] = append(plans[level], plan)
		}
	}

	predict := func(level codegen.Level, img *tensor.Tensor) int {
		x := img
		for i, plan := range plans[level] {
			x = plan.Execute(x, convs[i].Bias.W.Data)
			tensor.ReLU(x)
			x, _ = tensor.MaxPool2D(x, 2)
		}
		flat := x.Reshape(x.Len())
		var fc *nn.Dense
		for _, l := range net.Layers {
			if d, ok := l.(*nn.Dense); ok {
				fc = d
			}
		}
		return fc.Forward(flat).ArgMax()
	}

	agree, correct := 0, 0
	for i, img := range test.Images {
		p := predict(codegen.Tuned, img)
		if p == net.Predict(img) {
			agree++
		}
		if p == test.Labels[i] {
			correct++
		}
	}
	fmt.Printf("compiled-kernel inference: %.1f%% accuracy, %d/%d predictions match the reference\n",
		100*float64(correct)/float64(test.Len()), agree, test.Len())

	// Host wall-clock comparison of the code-generation levels.
	img := test.Images[0]
	for _, level := range []codegen.Level{codegen.NoOpt, codegen.Tuned} {
		ms := runtime.Measure(50, func() { predict(level, img) })
		fmt.Printf("host inference at %v: %.3f ms/image\n", level, ms)
	}
}
