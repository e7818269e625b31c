// Imageclassify runs the paper's full pipeline end to end with real
// computation at laptop scale: train a CNN on the synthetic image
// classification workload, prune it with ADMM (patterns + connectivity), save
// the whole pruned network as a .patdnn graph artifact, and execute real
// inference from that artifact alone through the graph executor — verifying
// that the deployed network predicts like the pruned reference and measuring
// the host-side speedup of the optimization levels.
package main

import (
	"bytes"
	"fmt"
	"log"

	"patdnn"
	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/dataset"
	"patdnn/internal/modelfile"
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

	// Ship the network the way a device would receive it — one artifact, FC
	// layer included — and compile what was loaded, at two optimization levels.
	var artifact bytes.Buffer
	if err := patdnn.SavePruned(net, res, &artifact); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("artifact: %d bytes\n", artifact.Len())
	mf, err := modelfile.Read(&artifact)
	if err != nil {
		log.Fatal(err)
	}
	m, params, err := execgraph.FromFile("imageclassify", mf)
	if err != nil {
		log.Fatal(err)
	}
	pool := runtime.NewPool(0)
	predictors := map[string]func(*tensor.Tensor) int{}
	for _, level := range []string{"noopt", "packed"} {
		plan, err := execgraph.Compile(m, params, execgraph.Config{Level: level})
		if err != nil {
			log.Fatal(err)
		}
		ex := plan.NewExecutor()
		out := tensor.New(plan.OutC, plan.OutH, plan.OutW)
		predictors[level] = func(img *tensor.Tensor) int {
			ex.Run(pool, []*tensor.Tensor{img}, []*tensor.Tensor{out})
			return out.ArgMax()
		}
	}

	agree, correct := 0, 0
	for i, img := range test.Images {
		p := predictors["packed"](img)
		if p == net.Predict(img) {
			agree++
		}
		if p == test.Labels[i] {
			correct++
		}
	}
	fmt.Printf("deployed-artifact inference: %.1f%% accuracy, %d/%d predictions match the reference\n",
		100*float64(correct)/float64(test.Len()), agree, test.Len())

	// Host wall-clock comparison of the code-generation levels.
	img := test.Images[0]
	for _, level := range []string{"noopt", "packed"} {
		ms := runtime.Measure(50, func() { predictors[level](img) })
		fmt.Printf("host inference at %s: %.3f ms/image\n", level, ms)
	}
}
