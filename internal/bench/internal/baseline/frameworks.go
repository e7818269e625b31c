// Package baseline models the frameworks PatDNN is compared against —
// TFLite, TVM, MNN and PatDNN's own dense and sparse builds, whose
// optimization sets follow Table 1 — on the modelled devices of
// ../device. Modelled, calibrated to the paper's reported numbers, and
// importable only from internal/bench; the measured host kernels are in
// patdnn/internal/baseline.
package baseline

import (
	"fmt"

	"patdnn/internal/bench/internal/device"
	"patdnn/internal/compiler/codegen"
	"patdnn/internal/compiler/lr"
	"patdnn/internal/model"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
)

// Framework models an end-to-end DNN inference framework by its optimization
// set (Table 1) and a kernel-quality factor per target. The factors encode
// how much of the device's achievable throughput each framework's generated
// kernels reach; they are calibrated once against the dense VGG numbers the
// paper reports (TVM VGG-16 on Adreno 640: 242 ms; TFLite VGG CPU: 818.1 ms)
// and then reused unchanged for every experiment — the per-model and
// per-optimization variation comes from the real instruction statistics.
type Framework struct {
	Name string
	// Optimization knobs of Table 1.
	AutoTuning    bool
	GraphOptLevel int // 0 = basic, 1 = TVM-class, 2 = ours (op replacement)
	SparseSupport bool
	WinogradDense bool
	// Kernel quality in (0,1]: fraction of tuned-kernel throughput reached.
	CPUEff, GPUEff float64
	// Footprint quirks: TFLite cannot run VGG/ImageNet on its GPU delegate
	// (paper footnote 3).
	GPUUnsupported func(m *model.Model) bool
}

// TFLite returns the TensorFlow Lite framework model.
func TFLite() Framework {
	return Framework{
		Name: "TFLite", AutoTuning: false, GraphOptLevel: 0, WinogradDense: true,
		CPUEff: 0.22, GPUEff: 0.42,
		GPUUnsupported: func(m *model.Model) bool {
			return m.Short == "VGG" && m.Dataset == "imagenet"
		},
	}
}

// TVM returns the TVM framework model.
func TVM() Framework {
	return Framework{
		Name: "TVM", AutoTuning: true, GraphOptLevel: 1, WinogradDense: true,
		CPUEff: 0.62, GPUEff: 0.60,
	}
}

// MNN returns the Alibaba Mobile Neural Network framework model.
func MNN() Framework {
	return Framework{
		Name: "MNN", AutoTuning: false, GraphOptLevel: 1, WinogradDense: true,
		CPUEff: 0.72, GPUEff: 0.78,
	}
}

// PatDNNDense returns PatDNN's own dense baseline — 1.1–1.6× faster than
// TVM/MNN thanks to the extra optimizations of Table 1.
func PatDNNDense(winograd bool) Framework {
	return Framework{
		Name: "PatDNN-dense", AutoTuning: true, GraphOptLevel: 2,
		WinogradDense: winograd, CPUEff: 0.92, GPUEff: 0.95,
	}
}

// DenseFrameworks returns the three competitor frameworks in paper order.
func DenseFrameworks() []Framework { return []Framework{TFLite(), TVM(), MNN()} }

// DenseLayerStats builds the instruction statistics of a dense conv/FC layer
// as executed by a well-optimized dense library (im2col/direct with tiling).
func DenseLayerStats(l *model.Layer, winograd bool) codegen.InstrStats {
	macs := l.MACs()
	if winograd && l.IsConv() && l.KH == 3 && l.Stride == 1 {
		// F(2x2,3x3): 2.25x multiply reduction, ~80% realizable after the
		// transform overhead.
		macs = int64(float64(macs) / 1.8)
	}
	weights := l.Params()
	return codegen.InstrStats{
		MACs: macs,
		// Dense im2col reuses each input element across the filter taps;
		// effective register loads ~0.6 per MAC.
		RegLoads:    int64(0.6 * float64(macs)),
		Branches:    0,
		WeightBytes: 4 * weights,
		ActBytes: 4 * (int64(l.InC)*int64(l.InH)*int64(l.InW) +
			int64(l.OutC)*int64(l.OutH)*int64(l.OutW)),
		Imbalance: 0, Groups: 1, VecEff: 1.0, CacheEff: 0.75,
	}
}

// DenseModelStats returns per-layer dense stats for all weighted layers.
func DenseModelStats(m *model.Model, winograd bool) []codegen.InstrStats {
	var out []codegen.InstrStats
	for _, l := range m.Layers {
		if l.IsConv() || l.Kind == model.FC {
			out = append(out, DenseLayerStats(l, winograd))
		}
	}
	return out
}

// TimeMs predicts the framework's end-to-end model latency on the device
// target. It returns an error for unsupported combinations (TFLite VGG GPU).
func (f Framework) TimeMs(m *model.Model, d device.Device, target device.Target) (float64, error) {
	if target == device.GPU && f.GPUUnsupported != nil && f.GPUUnsupported(m) {
		return 0, fmt.Errorf("%s does not support %s/%s on GPU (memory footprint)",
			f.Name, m.Name, m.Dataset)
	}
	stats := DenseModelStats(m, f.WinogradDense)
	// Frameworks with weaker graph optimization leave extra layout/copy
	// traffic between layers.
	graphPenalty := 1.0
	switch f.GraphOptLevel {
	case 0:
		graphPenalty = 1.18
	case 1:
		graphPenalty = 1.05
	}
	// No auto-tuning: tile/unroll choices are generic, costing cache
	// efficiency.
	if !f.AutoTuning {
		for i := range stats {
			stats[i].CacheEff *= 0.9
		}
	}
	bytesPerWeight := 4
	if target == device.GPU {
		bytesPerWeight = 2 // all GPU runs use FP16 weights
	}
	base := d.ModelTimeMs(stats, target, 8, bytesPerWeight)
	eff := f.CPUEff
	if target == device.GPU {
		eff = f.GPUEff
	}
	return base * graphPenalty / eff, nil
}

// PatDNNSparse holds a compiled sparse model: per-layer plans/stats.
type PatDNNSparse struct {
	Model *model.Model
	Stats []codegen.InstrStats
}

// CompilePatDNN generates the PatDNN execution stats for a model: every 3×3
// conv is pattern+connectivity pruned and compiled at the given level; 1×1
// and other convs get connectivity pruning only (the paper's uniform
// 3.6× kernel pruning), executed branchlessly; FC layers stay dense.
func CompilePatDNN(m *model.Model, setSize int, connRate float64, level codegen.Level, seed int64) (*PatDNNSparse, error) {
	set := pattern.Canonical(setSize)
	tune := lr.DefaultTuning()
	ps := &PatDNNSparse{Model: m}
	firstConv := true
	for _, l := range m.Layers {
		switch {
		case l.IsConv() && l.KH == 3 && l.KW == 3 && l.Kind == model.Conv:
			// The first conv layer is smaller and more sensitive; the paper
			// prunes it at a lower rate (Section 4.2).
			rate := connRate
			if firstConv {
				rate = FirstLayerConnRate(connRate)
				firstConv = false
			}
			c := pruned.Generate(l, set, rate, seed+int64(len(ps.Stats)), true)
			plan, err := codegen.Compile(c, level, tune)
			if err != nil {
				return nil, err
			}
			ps.Stats = append(ps.Stats, plan.Stats())
		case l.Kind == model.DWConv && l.KH == 3 && l.KW == 3:
			// Depthwise 3x3 kernels get pattern pruning too (the paper
			// prunes all 3x3 kernels); no connectivity pruning, since a
			// removed depthwise kernel would delete its channel.
			c := pruned.Generate(l, set, connRate, seed+int64(len(ps.Stats)), true)
			plan, err := codegen.Compile(c, level, tune)
			if err != nil {
				return nil, err
			}
			ps.Stats = append(ps.Stats, plan.Stats())
		case l.Kind == model.ConvTranspose && l.KH == 3 && l.KW == 3:
			// A transposed conv executes as its stride-1 equivalent conv over
			// the dilated input (what the graph executor actually runs), so
			// model that layer's cost, not the scatter form's.
			eq := &model.Layer{
				Name: l.Name, Kind: model.Conv, InC: l.InC, OutC: l.OutC,
				KH: l.KH, KW: l.KW, Stride: 1, Pad: l.KH - 1 - l.Pad, Groups: 1,
				InH:  (l.InH-1)*l.Stride + 1 + l.OutPad,
				InW:  (l.InW-1)*l.Stride + 1 + l.OutPad,
				OutH: l.OutH, OutW: l.OutW,
			}
			c := pruned.Generate(eq, set, connRate, seed+int64(len(ps.Stats)), true)
			plan, err := codegen.Compile(c, level, tune)
			if err != nil {
				return nil, err
			}
			ps.Stats = append(ps.Stats, plan.Stats())
		case l.Kind == model.Conv && l.KH == 1 && l.KW == 1 && connRate > 1:
			// 1x1 bottleneck/expand layers: real connectivity-pruned plan.
			plan, err := codegen.Compile1x1FromLayer(l, connRate, seed+int64(len(ps.Stats)))
			if err != nil {
				return nil, err
			}
			st := plan.Stats()
			if level != codegen.Tuned {
				st.CacheEff = 0.55 + 0.05*float64(level)
			}
			ps.Stats = append(ps.Stats, st)
		case l.IsConv():
			ps.Stats = append(ps.Stats, connectivityOnlyStats(l, connRate, level))
		case l.Kind == model.FC:
			ps.Stats = append(ps.Stats, DenseLayerStats(l, false))
		}
	}
	return ps, nil
}

// FirstLayerConnRate returns the reduced connectivity rate applied to a
// network's first conv layer (Section 4.2's non-uniform exception).
func FirstLayerConnRate(connRate float64) float64 {
	r := connRate / 2
	if r < 1 {
		r = 1
	}
	return r
}

// connectivityOnlyStats models non-3×3 convs (1×1 bottlenecks, the 7×7 stem,
// depthwise) under uniform kernel (connectivity) pruning: computation drops
// by the rate, execution stays branchless and balanced because whole kernels
// vanish. Depthwise layers are kept dense (pruning a DW kernel removes its
// channel entirely).
func connectivityOnlyStats(l *model.Layer, connRate float64, level codegen.Level) codegen.InstrStats {
	st := DenseLayerStats(l, false)
	if l.Kind == model.DWConv || connRate <= 1 {
		return st
	}
	st.MACs = int64(float64(st.MACs) / connRate)
	st.RegLoads = int64(float64(st.RegLoads) / connRate)
	st.WeightBytes = int64(float64(st.WeightBytes)/connRate) +
		2*int64(float64(l.KernelCount())/connRate) // per-kernel index
	switch level {
	case codegen.NoOpt:
		st.VecEff, st.CacheEff = 0.5, 0.5
		st.Branches = st.MACs / int64(l.KH*l.KW)
	case codegen.Reorder:
		st.CacheEff = 0.55
	case codegen.ReorderLRE:
		st.CacheEff = 0.6
	case codegen.Tuned:
		st.CacheEff = 0.9
	}
	return st
}

// TimeMs predicts PatDNN's end-to-end latency.
func (p *PatDNNSparse) TimeMs(d device.Device, target device.Target) float64 {
	bytesPerWeight := 4
	if target == device.GPU {
		bytesPerWeight = 2
	}
	return d.ModelTimeMs(p.Stats, target, 8, bytesPerWeight)
}

// CSRSparseTimeMs models the conventional CSR sparse execution of the same
// pruned model: computation drops by the pruning rate but the kernels stay
// irregular — per-element indirection defeats vectorization and locality, so
// it lands near the dense time (Section 6.2's CSR observation).
func CSRSparseTimeMs(m *model.Model, connRate float64, d device.Device, target device.Target) float64 {
	stats := DenseModelStats(m, false)
	for i := range stats {
		st := &stats[i]
		st.MACs = int64(float64(st.MACs) / (connRate * 2.25))
		// CSR: one column-index load per weight plus gather-style input
		// loads; no register reuse is detectable.
		st.RegLoads = 2 * st.MACs
		st.VecEff = 0.45                                      // gather defeats SIMD
		st.CacheEff = 0.5                                     // irregular access pattern
		st.WeightBytes = st.WeightBytes / int64(connRate) * 2 // values + int32 idx
	}
	bytesPerWeight := 4
	if target == device.GPU {
		bytesPerWeight = 2
	}
	return d.ModelTimeMs(stats, target, 8, bytesPerWeight)
}
