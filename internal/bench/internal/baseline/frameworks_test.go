package baseline

import (
	"testing"

	"patdnn/internal/bench/internal/device"
	"patdnn/internal/compiler/codegen"
	"patdnn/internal/model"
)

func TestFrameworkOrderingCPU(t *testing.T) {
	// Figure 12's CPU ordering for every network: TFLite slowest, then TVM,
	// then MNN, then PatDNN (sparse).
	d := device.SD855()
	for _, m := range []*model.Model{model.VGG16("imagenet"), model.VGG16("cifar10")} {
		var times []float64
		for _, f := range DenseFrameworks() {
			ms, err := f.TimeMs(m, d, device.CPU)
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, ms)
		}
		if !(times[0] > times[1] && times[1] > times[2]) {
			t.Fatalf("%s/%s CPU ordering wrong: TFLite %.1f TVM %.1f MNN %.1f",
				m.Short, m.Dataset, times[0], times[1], times[2])
		}
	}
}

func TestPatDNNBeatsAllDense(t *testing.T) {
	d := device.SD855()
	m := model.VGG16("imagenet")
	ps, err := CompilePatDNN(m, 8, 3.6, codegen.Tuned, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []device.Target{device.CPU, device.GPU} {
		pat := ps.TimeMs(d, target)
		for _, f := range DenseFrameworks() {
			ms, err := f.TimeMs(m, d, target)
			if err != nil {
				continue // TFLite VGG GPU unsupported
			}
			if pat >= ms {
				t.Fatalf("%s %s: PatDNN %.1f not faster than %s %.1f",
					m.Short, target, pat, f.Name, ms)
			}
		}
	}
}

func TestSpeedupRangesVGGCPU(t *testing.T) {
	// Paper: CPU speedups over TFLite 12.3-44.5x, TVM 2.4-5.1x,
	// MNN 1.9-7.1x. Check VGG/ImageNet lands inside (wide) versions of
	// those bands.
	d := device.SD855()
	m := model.VGG16("imagenet")
	ps, err := CompilePatDNN(m, 8, 3.6, codegen.Tuned, 1)
	if err != nil {
		t.Fatal(err)
	}
	pat := ps.TimeMs(d, device.CPU)
	check := func(f Framework, lo, hi float64) {
		ms, err := f.TimeMs(m, d, device.CPU)
		if err != nil {
			t.Fatal(err)
		}
		s := ms / pat
		if s < lo || s > hi {
			t.Errorf("%s speedup %.1fx outside [%.1f, %.1f]", f.Name, s, lo, hi)
		}
	}
	check(TFLite(), 8, 50)
	check(TVM(), 2, 8)
	check(MNN(), 1.5, 8)
}

func TestTFLiteVGGGPUUnsupported(t *testing.T) {
	_, err := TFLite().TimeMs(model.VGG16("imagenet"), device.SD855(), device.GPU)
	if err == nil {
		t.Fatal("TFLite must reject VGG/ImageNet on GPU (paper footnote 3)")
	}
	// Smaller models are fine.
	if _, err := TFLite().TimeMs(model.MobileNetV2("imagenet"), device.SD855(), device.GPU); err != nil {
		t.Fatal(err)
	}
}

func TestVGGGPURealTime(t *testing.T) {
	// The headline: PatDNN completes VGG CONV layers in ~18.9 ms on the
	// Adreno 640, under the 33 ms real-time bound. Allow a generous band
	// around the paper's number since our GPU is a model.
	d := device.SD855()
	m := model.VGG16("imagenet")
	ps, err := CompilePatDNN(m, 8, 3.6, codegen.Tuned, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Exclude FC (the paper's 18.9 ms covers CONV layers).
	var convStats []codegen.InstrStats
	i := 0
	for _, l := range m.Layers {
		if l.IsConv() || l.Kind == model.FC {
			if l.IsConv() {
				convStats = append(convStats, ps.Stats[i])
			}
			i++
		}
	}
	ms := d.ModelTimeMs(convStats, device.GPU, 8, 2)
	if ms < 5 || ms > 33 {
		t.Fatalf("VGG CONV GPU time %.1f ms, want real-time (<33, paper 18.9)", ms)
	}
	// Whole network: the Adreno 640 beats the Kryo 485 (Figure 12 a vs c).
	if cpu, gpu := ps.TimeMs(d, device.CPU), ps.TimeMs(d, device.GPU); cpu <= gpu {
		t.Fatalf("CPU (%.1f ms) should be slower than GPU (%.1f ms)", cpu, gpu)
	}
}

func TestCSRNoFasterThanPatDNNDense(t *testing.T) {
	// Section 6.2: the CSR sparse implementation shows "almost the same
	// speed to PatDNN's dense version" despite 8x fewer MACs.
	d := device.SD855()
	m := model.VGG16("imagenet")
	csr := CSRSparseTimeMs(m, 3.6, d, device.CPU)
	denseMs, err := PatDNNDense(true).TimeMs(m, d, device.CPU)
	if err != nil {
		t.Fatal(err)
	}
	ratio := csr / denseMs
	if ratio < 0.5 || ratio > 1.6 {
		t.Fatalf("CSR/dense ratio %.2f, want near 1 (paper: almost the same)", ratio)
	}
}

func TestPatDNNDenseFasterThanMNNAndTVM(t *testing.T) {
	// Figure 17(a): PatDNN's dense version beats MNN; Section 6.2: 1.1-1.6x
	// faster than TVM and MNN.
	d := device.SD855()
	m := model.VGG16("imagenet")
	ours, err := PatDNNDense(true).TimeMs(m, d, device.CPU)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []Framework{TVM(), MNN()} {
		them, err := f.TimeMs(m, d, device.CPU)
		if err != nil {
			t.Fatal(err)
		}
		ratio := them / ours
		if ratio < 1.05 || ratio > 3.0 {
			t.Errorf("dense vs %s ratio %.2f, want in [1.05, 3.0]", f.Name, ratio)
		}
	}
}

func TestCompilePatDNNAllModels(t *testing.T) {
	// All six Table 5 networks compile; ResNet/MobileNet exercise the
	// connectivity-only path for 1x1/7x7/depthwise layers.
	for _, m := range []*model.Model{
		model.VGG16("cifar10"), model.ResNet50("cifar10"), model.MobileNetV2("cifar10"),
	} {
		ps, err := CompilePatDNN(m, 8, 3.6, codegen.Tuned, 2)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if len(ps.Stats) == 0 {
			t.Fatalf("%s: no stats", m.Name)
		}
		ms := ps.TimeMs(device.SD855(), device.CPU)
		if ms <= 0 {
			t.Fatalf("%s: non-positive time", m.Name)
		}
	}
}
