// Command patdnn-compile runs the paper's execution-code-generation stage on
// one of the evaluation networks: pattern+connectivity pruning at scale,
// filter kernel reorder and FKW encoding, written as the deployable .patdnn
// graph artifact (-o, -registry-dir). It prints the network summary, with
// -lr the layerwise representation (Figure 8) of exactly the artifact it
// writes, and with -emit the generated-code skeletons (Figure 7). The
// modelled phone latencies and accuracies are `patdnn-bench -run figure12`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"patdnn"
	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/lr"
	"patdnn/internal/model"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/registry"
	"patdnn/internal/sparse"
)

// writeModelFile writes the compiled network's deployable graph artifact
// (topology + conv/dense/BN records — what ResNet-50 and MobileNet-V2 need to
// serve end to end) to path, via a temp file renamed into place: the target
// may be a live, polled models directory, and a truncated half-written
// artifact there would be quarantined by every watching server until the
// write finished. quantBits >= 2 stores conv weights as per-filter symmetric
// integer levels instead of FP16 — the format-v3 quantized artifact the
// serving engine runs at level packedq8.
func writeModelFile(path string, quantBits int, c *patdnn.Compiled) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.WriteModelGraphQuant(f, quantBits); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func main() {
	network := flag.String("model", "VGG", "network: VGG, RNT, MBNT, SR")
	ds := flag.String("dataset", "imagenet", "dataset: imagenet or cifar10")
	patterns := flag.Int("patterns", 8, "pattern-set size")
	connRate := flag.Float64("conn", 3.6, "connectivity pruning rate")
	emit := flag.Bool("emit", false, "print generated code skeletons for the first 3x3 layer")
	showLR := flag.Bool("lr", false, "print the layerwise representation JSON of the artifact -o writes")
	out := flag.String("o", "", "write the deployable compact model (.patdnn) to this path")
	quantBits := flag.Int("quant-bits", 0,
		"quantize conv weights to this many bits (2..8) in the written artifact — emits a v3 quantized model served at level packedq8; 0 keeps FP16")
	regDir := flag.String("registry-dir", "",
		"write the compact model into this models directory in registry layout (<name>@<version>.patdnn), creating it if needed")
	regName := flag.String("name", "", "registry artifact name (default: lowercased model short name)")
	regVersion := flag.String("version", "v1", "registry artifact version")
	flag.Parse()

	c, err := patdnn.Compile(*network, *ds, *patterns, *connRate)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m := c.Model
	fmt.Printf("%s / %s: %d paper layers, %d CONV, %.1f MB dense\n",
		m.Name, m.Dataset, m.PaperLayerCount(), len(m.ConvLayers()), m.SizeMB(4))

	if *out != "" {
		if err := writeModelFile(*out, *quantBits, c); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote compact model to %s\n", *out)
	}

	if *regDir != "" {
		name := *regName
		if name == "" {
			name = strings.ToLower(m.Short)
		}
		// Reject names/versions the registry scanner would silently skip
		// (e.g. a name containing '@', or an empty version) — publishing an
		// artifact no server will ever list is worse than failing here.
		base := registry.FileName(name, *regVersion)
		if _, _, err := registry.ParseFileName(base); err != nil {
			fmt.Fprintf(os.Stderr, "bad -name/-version: %v\n", err)
			os.Exit(1)
		}
		if err := os.MkdirAll(*regDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		path := filepath.Join(*regDir, base)
		if err := writeModelFile(path, *quantBits, c); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote registry artifact %s@%s to %s (serve with: patdnn-serve -models-dir %s)\n",
			name, *regVersion, path, *regDir)
	}

	if *showLR {
		data, err := c.LRJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nlayerwise representation:\n%s\n", data)
	}

	if *emit {
		var first *model.Layer
		for _, l := range m.ConvLayers() {
			if l.KH == 3 && l.Kind == model.Conv {
				first = l
				break
			}
		}
		pc := pruned.Generate(first, pattern.Canonical(*patterns), *connRate, 1, true)
		fmt.Printf("\ngenerated CPU code for %s at each optimization level:\n", first.Name)
		for _, level := range codegen.AllLevels() {
			plan, err := codegen.Compile(pc, level, lr.DefaultTuning())
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(plan.EmitSource())
		}
		fkw, err := sparse.Encode(pc, nil)
		if err == nil {
			csr := sparse.FromConvWeights(pc.Weights)
			fmt.Printf("storage for %s: FKW %d B structure (%d B total) vs CSR %d B structure (%d B total)\n",
				first.Name, fkw.OverheadBytes(), fkw.TotalBytes(4),
				csr.OverheadBytes(), csr.TotalBytes(4))
		}
	}
}
