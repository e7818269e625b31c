package device

import (
	"testing"

	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/lr"
	"patdnn/internal/model"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
)

// layerStats compiles a VGG L4-scale pruned layer at the given level and
// returns its stats.
func layerStats(t testing.TB, level codegen.Level) codegen.InstrStats {
	t.Helper()
	m := model.VGG16("imagenet")
	c := pruned.Generate(m.ConvLayers()[3], pattern.Canonical(8), 3.6, 1, true)
	p, err := codegen.Compile(c, level, lr.DefaultTuning())
	if err != nil {
		t.Fatal(err)
	}
	return p.Stats()
}

func TestTimePositiveAndFinite(t *testing.T) {
	st := layerStats(t, codegen.Tuned)
	for _, d := range All() {
		for _, tgt := range []Target{CPU, GPU} {
			ms := d.TimeMs(st, tgt, 8, 4)
			if ms <= 0 || ms > 1e5 {
				t.Fatalf("%s/%s: time %.3f ms out of range", d.Name, tgt, ms)
			}
		}
	}
}

func TestOptimizationLevelsSpeedUp(t *testing.T) {
	// The whole point of the compiler: each optimization level must be
	// faster than the previous on the device model (Figure 13's shape).
	d := SD855()
	var prevCPU, prevGPU float64
	for i, level := range []codegen.Level{codegen.NoOpt, codegen.Reorder,
		codegen.ReorderLRE, codegen.Tuned} {
		st := layerStats(t, level)
		cpu := d.TimeMs(st, CPU, 8, 4)
		gpu := d.TimeMs(st, GPU, 8, 2)
		if i > 0 {
			if cpu > prevCPU*1.001 {
				t.Fatalf("level %v slower on CPU: %.3f > %.3f", level, cpu, prevCPU)
			}
			if gpu > prevGPU*1.001 {
				t.Fatalf("level %v slower on GPU: %.3f > %.3f", level, gpu, prevGPU)
			}
		}
		prevCPU, prevGPU = cpu, gpu
	}
}

func TestFullOptimizationSpeedupRange(t *testing.T) {
	// Figure 13 reports roughly 2.5x–9x total speedup over No-Opt on CPU
	// and up to ~15x on GPU for VGG layers.
	d := SD855()
	no := layerStats(t, codegen.NoOpt)
	tu := layerStats(t, codegen.Tuned)
	cpuSpeedup := d.TimeMs(no, CPU, 8, 4) / d.TimeMs(tu, CPU, 8, 4)
	gpuSpeedup := d.TimeMs(no, GPU, 8, 2) / d.TimeMs(tu, GPU, 8, 2)
	if cpuSpeedup < 2 || cpuSpeedup > 20 {
		t.Fatalf("CPU total speedup %.2fx outside the paper's range", cpuSpeedup)
	}
	if gpuSpeedup < 2 || gpuSpeedup > 30 {
		t.Fatalf("GPU total speedup %.2fx outside the paper's range", gpuSpeedup)
	}
	if gpuSpeedup < cpuSpeedup {
		t.Fatalf("GPU should benefit more from FKR (divergence): cpu %.2f gpu %.2f",
			cpuSpeedup, gpuSpeedup)
	}
}

func TestMoreThreadsFaster(t *testing.T) {
	d := SD855()
	st := layerStats(t, codegen.Tuned)
	t1 := d.TimeMs(st, CPU, 1, 4)
	t8 := d.TimeMs(st, CPU, 8, 4)
	if t8 >= t1 {
		t.Fatalf("8 threads (%.3f) not faster than 1 (%.3f)", t8, t1)
	}
}

func TestFP16HalvesGPUMemoryPressure(t *testing.T) {
	d := SD855()
	st := layerStats(t, codegen.Tuned)
	// Make the layer memory bound by inflating byte counts.
	st.WeightBytes *= 64
	st.ActBytes *= 64
	fp32 := d.TimeMs(st, GPU, 8, 4)
	fp16 := d.TimeMs(st, GPU, 8, 2)
	if fp16 >= fp32 {
		t.Fatalf("fp16 (%.3f) not faster than fp32 (%.3f) when memory bound", fp16, fp32)
	}
}

func TestPlatformOrdering(t *testing.T) {
	// SD855 is the fastest platform; Kirin 980's GPU is the most
	// bandwidth-starved (Section 6.5).
	st := layerStats(t, codegen.Tuned)
	t855 := SD855().TimeMs(st, GPU, 8, 2)
	t845 := SD845().TimeMs(st, GPU, 8, 2)
	t980 := Kirin980().TimeMs(st, GPU, 8, 2)
	if !(t855 < t845 && t845 < t980) {
		t.Fatalf("GPU platform ordering wrong: 855=%.3f 845=%.3f 980=%.3f", t855, t845, t980)
	}
}

func TestCPUPlatformOrdering(t *testing.T) {
	// SD855's CPU is the fastest of the three platforms on compute-bound
	// layers; Kirin 980 trails (lower clock, utilization, bandwidth).
	st := layerStats(t, codegen.Tuned)
	t855 := SD855().TimeMs(st, CPU, 8, 4)
	t845 := SD845().TimeMs(st, CPU, 8, 4)
	t980 := Kirin980().TimeMs(st, CPU, 8, 4)
	if !(t855 < t845 && t845 < t980) {
		t.Fatalf("CPU ordering wrong: 855=%.3f 845=%.3f 980=%.3f", t855, t845, t980)
	}
}

func TestImbalanceCostsTime(t *testing.T) {
	d := SD855()
	st := layerStats(t, codegen.Tuned)
	skewed := st
	skewed.Imbalance = 0.5
	if d.TimeMs(skewed, CPU, 8, 4) <= d.TimeMs(st, CPU, 8, 4) {
		t.Fatal("load imbalance is free on CPU")
	}
	if d.TimeMs(skewed, GPU, 8, 2) <= d.TimeMs(st, GPU, 8, 2) {
		t.Fatal("load imbalance is free on GPU")
	}
}

func TestZeroedEfficiencyFieldsDefaulted(t *testing.T) {
	// Stats from external builders may omit VecEff/CacheEff; the model must
	// not divide by zero.
	d := SD855()
	st := layerStats(t, codegen.Tuned)
	st.VecEff, st.CacheEff = 0, 0
	ms := d.TimeMs(st, CPU, 8, 4)
	if ms <= 0 || ms > 1e6 {
		t.Fatalf("defaulted-efficiency time %v", ms)
	}
}

func TestEffectiveCores(t *testing.T) {
	c := SD855().CPU
	if c.effectiveCores(1) != 1 {
		t.Fatalf("1 thread = %.2f cores", c.effectiveCores(1))
	}
	if c.effectiveCores(4) != 4 {
		t.Fatalf("4 threads = %.2f cores", c.effectiveCores(4))
	}
	e8 := c.effectiveCores(8)
	if e8 <= 4 || e8 >= 8 {
		t.Fatalf("8 threads = %.2f cores, want in (4,8)", e8)
	}
	if c.effectiveCores(0) < 1 {
		t.Fatal("0 threads must clamp to 1 core")
	}
}

func TestBranchesCostTime(t *testing.T) {
	d := SD855()
	st := layerStats(t, codegen.Tuned)
	branchy := st
	branchy.Branches = st.MACs / 10 // pathological dispatch density
	if d.TimeMs(branchy, CPU, 8, 4) <= d.TimeMs(st, CPU, 8, 4) {
		t.Fatal("branches are free on CPU model")
	}
	if d.TimeMs(branchy, GPU, 8, 2) <= d.TimeMs(st, GPU, 8, 2) {
		t.Fatal("divergence is free on GPU model")
	}
}
