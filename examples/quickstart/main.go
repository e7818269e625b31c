// Quickstart: compile VGG-16/CIFAR-10 at the paper's operating point (8
// patterns, 3.6x connectivity pruning) into the serving engine and run one
// measured inference on this host. The paper's headline comparison — PatDNN
// against TFLite/TVM/MNN on the Snapdragon 855 — is a modelled reproduction:
// `go run ./cmd/patdnn-bench -run figure12`.
package main

import (
	"context"
	"fmt"
	"log"

	"patdnn"
)

func main() {
	compiled, err := patdnn.Compile("VGG", "cifar10", 8, 3.6)
	if err != nil {
		log.Fatal(err)
	}
	m := compiled.Model
	fmt.Printf("%s (%s): %d CONV layers, %.1f MB dense, %d patterns, %.1fx connectivity pruning\n",
		m.Name, m.Dataset, len(m.ConvLayers()), m.SizeMB(4), compiled.Patterns, compiled.ConnRate)

	eng := patdnn.NewEngine(patdnn.EngineConfig{
		Patterns: compiled.Patterns, ConnRate: compiled.ConnRate})
	defer eng.Close()
	// nil Input selects a deterministic synthetic image.
	resp, err := eng.Infer(context.Background(),
		patdnn.InferRequest{Network: m.Short, Dataset: m.Dataset})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one inference at level %s: %.2f ms measured on this host, output %v\n",
		resp.Level, resp.RunMs, resp.Shape)
	fmt.Println("SD855 comparison against TFLite/TVM/MNN (modelled): go run ./cmd/patdnn-bench -run figure12")
}
