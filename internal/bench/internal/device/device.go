// Package device models the mobile platforms of the paper's evaluation —
// Snapdragon 855 (Kryo 485 CPU + Adreno 640 GPU), Snapdragon 845 (Kryo 385 +
// Adreno 630), and Kirin 980 (ARM big.LITTLE + Mali-G76) — as analytic cost
// models. This is the documented hardware substitution (DESIGN.md): the real
// phones are unavailable, so execution time is predicted from the instruction
// statistics (MACs, register loads, branches, memory traffic, load imbalance)
// that the *real* generated kernels report. The compiler optimizations change
// those statistics; the device model only converts them to milliseconds, so
// relative orderings are driven by the measured structure of the code, not by
// per-experiment fudge factors.
package device

import "patdnn/internal/compiler/codegen"

// Target selects the execution unit.
type Target int

// Execution targets.
const (
	CPU Target = iota
	GPU
)

func (t Target) String() string {
	if t == GPU {
		return "GPU"
	}
	return "CPU"
}

// CPUSpec describes a mobile big.LITTLE CPU cluster.
type CPUSpec struct {
	Name        string
	BigCores    int
	LittleCores int
	BigGHz      float64
	LittleGHz   float64
	SIMDLanes   int     // float32 lanes per NEON vector op
	MemBWGBs    float64 // sustained DRAM bandwidth available to the CPU
	BranchCycle float64 // pipeline-stall cycles per mispredicted dispatch
	Util        float64 // achievable fraction of peak in tuned kernels
}

// GPUSpec describes a mobile GPU.
type GPUSpec struct {
	Name        string
	ALUs        int // scalar fp32 ALUs
	GHz         float64
	FP16Rate    float64 // throughput multiplier with 16-bit floats (usually 2)
	MemBWGBs    float64
	DivergeCost float64 // relative slowdown per unit branch density
	Util        float64 // achievable fraction of peak in tuned kernels
}

// Device bundles both targets of one platform.
type Device struct {
	Name string
	CPU  CPUSpec
	GPU  GPUSpec
}

// SD855 returns the primary evaluation platform: Qualcomm Snapdragon 855 in
// the Samsung Galaxy S10 (Section 6.1).
func SD855() Device {
	return Device{
		Name: "Snapdragon 855",
		CPU: CPUSpec{
			Name: "Kryo 485", BigCores: 4, LittleCores: 4,
			BigGHz: 2.84, LittleGHz: 1.78, SIMDLanes: 4,
			MemBWGBs: 14, BranchCycle: 2.5, Util: 0.55,
		},
		GPU: GPUSpec{
			Name: "Adreno 640", ALUs: 384, GHz: 0.585, FP16Rate: 2,
			MemBWGBs: 28, DivergeCost: 1.2, Util: 0.42,
		},
	}
}

// SD845 returns the Xiaomi POCOPHONE F1 platform of the portability study.
func SD845() Device {
	return Device{
		Name: "Snapdragon 845",
		CPU: CPUSpec{
			Name: "Kryo 385", BigCores: 4, LittleCores: 4,
			BigGHz: 2.8, LittleGHz: 1.77, SIMDLanes: 4,
			MemBWGBs: 12, BranchCycle: 2.8, Util: 0.50,
		},
		GPU: GPUSpec{
			Name: "Adreno 630", ALUs: 256, GHz: 0.71, FP16Rate: 2,
			MemBWGBs: 24, DivergeCost: 1.3, Util: 0.40,
		},
	}
}

// Kirin980 returns the Honor Magic 2 platform of the portability study. Its
// Mali-G76 is more sensitive to memory bandwidth pressure, which is why the
// dense frameworks slow down more on it while PatDNN stays stable
// (Section 6.5).
func Kirin980() Device {
	return Device{
		Name: "Kirin 980",
		CPU: CPUSpec{
			Name: "Cortex-A76/A55", BigCores: 4, LittleCores: 4,
			BigGHz: 2.6, LittleGHz: 1.8, SIMDLanes: 4,
			MemBWGBs: 10, BranchCycle: 2.8, Util: 0.48,
		},
		GPU: GPUSpec{
			Name: "Mali-G76", ALUs: 240, GHz: 0.72, FP16Rate: 2,
			MemBWGBs: 14, DivergeCost: 1.6, Util: 0.33,
		},
	}
}

// All returns the three platforms in paper order.
func All() []Device { return []Device{SD855(), SD845(), Kirin980()} }

// effectiveCores returns the CPU's parallel capacity in big-core
// equivalents for the given thread count.
func (c CPUSpec) effectiveCores(threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	cores := 0.0
	for i := 0; i < threads && i < c.BigCores; i++ {
		cores += 1.0
	}
	for i := c.BigCores; i < threads && i < c.BigCores+c.LittleCores; i++ {
		cores += c.LittleGHz / c.BigGHz * 0.9 // little cores help less
	}
	if cores == 0 {
		cores = 1
	}
	return cores
}

// TimeMs converts one layer's instruction statistics to predicted execution
// time on the target, for the given thread count and weight precision
// (bytesPerWeight: 4 on CPU, 2 with FP16 on GPU).
func (d Device) TimeMs(st codegen.InstrStats, target Target, threads, bytesPerWeight int) float64 {
	vecEff, cacheEff := st.VecEff, st.CacheEff
	if vecEff <= 0 {
		vecEff = 1
	}
	if cacheEff <= 0 {
		cacheEff = 0.6
	}
	switch target {
	case CPU:
		c := d.CPU
		lanes := float64(c.SIMDLanes) * vecEff
		// Compute: FMA issue + register loads (with their address
		// arithmetic) over the effective SIMD lanes, plus dispatch stalls.
		cycles := float64(st.MACs)/lanes +
			1.2*float64(st.RegLoads)/lanes +
			float64(st.Branches)*c.BranchCycle
		par := c.effectiveCores(threads)
		// Load imbalance wastes the tail of the parallel section.
		par *= 1 - 0.5*st.Imbalance
		if par < 1 {
			par = 1
		}
		computeMs := cycles / (c.BigGHz * 1e9 * c.Util * cacheEff * par) * 1e3
		// Poor locality refetches activations from DRAM; cache-efficient
		// blocking keeps them resident.
		memBytes := float64(st.WeightBytes)/4*float64(bytesPerWeight) +
			float64(st.ActBytes)/cacheEff
		memMs := memBytes / (c.MemBWGBs * 1e9) * 1e3
		if memMs > computeMs {
			return memMs
		}
		return computeMs
	case GPU:
		g := d.GPU
		peak := float64(g.ALUs) * g.GHz * 1e9 * g.FP16Rate * g.Util * cacheEff
		// Divergence: branch-dense kernels serialize wavefront lanes;
		// imbalance leaves compute units idle at block boundaries.
		branchDensity := 0.0
		if st.MACs > 0 {
			branchDensity = float64(st.Branches) / float64(st.MACs) * 10
		}
		if branchDensity > 1.5 {
			branchDensity = 1.5
		}
		slowdown := (1 + g.DivergeCost*branchDensity) * (1 + 1.5*st.Imbalance) / vecEff
		computeMs := (float64(st.MACs) + float64(st.RegLoads)) / peak * slowdown * 1e3
		memBytes := (float64(st.WeightBytes)/4*float64(bytesPerWeight) +
			float64(st.ActBytes)/4*float64(bytesPerWeight)/cacheEff)
		memMs := memBytes / (g.MemBWGBs * 1e9) * 1e3
		if memMs > computeMs {
			return memMs
		}
		return computeMs
	}
	return 0
}

// ModelTimeMs sums per-layer times.
func (d Device) ModelTimeMs(stats []codegen.InstrStats, target Target, threads, bytesPerWeight int) float64 {
	var total float64
	for _, st := range stats {
		total += d.TimeMs(st, target, threads, bytesPerWeight)
	}
	return total
}
