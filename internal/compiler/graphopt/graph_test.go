package graphopt

import (
	"testing"

	"patdnn/internal/model"
)

func TestFromModelValid(t *testing.T) {
	for _, m := range model.All() {
		g := FromModel(m)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s/%s: %v", m.Name, m.Dataset, err)
		}
		if len(g.Nodes) != len(m.Layers) {
			t.Fatalf("%s: node count %d != layer count %d", m.Name, len(g.Nodes), len(m.Layers))
		}
	}
}

func TestResidualEdgesPresent(t *testing.T) {
	g := FromModel(model.ResNet50("imagenet"))
	twoInputs := 0
	for _, n := range g.Nodes {
		if n.Op == "add" && len(n.Inputs) == 2 {
			twoInputs++
		}
	}
	// ResNet-50 has 16 residual adds.
	if twoInputs != 16 {
		t.Fatalf("residual adds with 2 inputs = %d, want 16", twoInputs)
	}
}

func TestFuseVGG(t *testing.T) {
	// VGG: every conv is followed by a ReLU with a single consumer; all 13
	// fuse. The 2 FC ReLUs stay (they follow fc, not conv).
	g := FromModel(model.VGG16("imagenet"))
	st := g.FuseConvBNReLU()
	if st.Applied != 13 {
		t.Fatalf("fusions = %d, want 13", st.Applied)
	}
	fused := 0
	for _, n := range g.Nodes {
		if n.Op == "conv+relu" {
			fused++
		}
		if n.Op == "batchnorm" {
			t.Fatal("VGG has no BN, found one")
		}
	}
	if fused != 13 {
		t.Fatalf("conv+relu nodes = %d, want 13", fused)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFuseResNetCreatesConvBNReLU(t *testing.T) {
	g := FromModel(model.ResNet50("imagenet"))
	before := len(g.Nodes)
	st := g.FuseConvBNReLU()
	if st.Applied == 0 {
		t.Fatal("no fusions on ResNet")
	}
	hasCBR := false
	for _, n := range g.Nodes {
		if n.Op == "conv+bn+relu" {
			hasCBR = true
		}
	}
	if !hasCBR {
		t.Fatal("expected conv+bn+relu fused nodes")
	}
	if len(g.Nodes) >= before {
		t.Fatal("fusion did not shrink the graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Shortcut adds must still have both inputs after contraction.
	adds := 0
	for _, n := range g.Nodes {
		if n.Op == "add" && len(n.Inputs) == 2 {
			adds++
		}
	}
	if adds != 16 {
		t.Fatalf("adds with both inputs after fusion = %d, want 16", adds)
	}
}

// TestFoldConstants: conv→BN fusion records every BatchNorm of ResNet-50 on
// the conv it follows — the constants execgraph folds into that conv's
// weights and bias — and leaves no batchnorm node behind.
func TestFoldConstants(t *testing.T) {
	m := model.ResNet50("imagenet")
	bns := 0
	for _, l := range m.Layers {
		if l.Kind == model.BatchNorm {
			bns++
		}
	}
	g := FromModel(m)
	g.FuseConvBNReLU()
	folded := 0
	for _, n := range g.Nodes {
		if n.Op == "batchnorm" {
			t.Fatalf("node %d: batchnorm survived conv→BN fusion", n.ID)
		}
		if n.BN != nil {
			folded++
		}
	}
	if bns == 0 || folded != bns {
		t.Fatalf("BNs recorded on convs = %d, want all %d", folded, bns)
	}
}

// TestMemoryPlanReusesBuffers: after fusion, values on deep feed-forward nets
// die soon after they are produced, so the peak of simultaneously live
// activations — the least any static memory plan can allocate — is a small
// fraction of giving every value its own buffer.
func TestMemoryPlanReusesBuffers(t *testing.T) {
	for _, m := range []*model.Model{model.VGG16("imagenet"), model.ResNet50("imagenet")} {
		g := FromModel(m)
		fuse(g)
		lastUse := make([]int, len(g.Nodes))
		size := make([]int64, len(g.Nodes))
		var naive int64
		for _, n := range g.Nodes {
			lastUse[n.ID] = n.ID
			for _, in := range n.Inputs {
				lastUse[in] = n.ID
			}
			l := n.Layer
			size[n.ID] = 4 * int64(l.OutC) * int64(l.OutH) * int64(l.OutW)
			naive += size[n.ID]
		}
		var peak int64
		for k := range g.Nodes {
			var live int64
			for v := 0; v <= k; v++ {
				if lastUse[v] >= k {
					live += size[v]
				}
			}
			peak = max(peak, live)
		}
		if peak <= 0 || naive <= 0 {
			t.Fatalf("%s: empty plan", m.Name)
		}
		if float64(peak) > 0.5*float64(naive) {
			t.Fatalf("%s: weak reuse: peak live %d vs naive %d", m.Name, peak, naive)
		}
	}
}

// TestOptimizePipeline runs execgraph.Compile's pass schedule on ResNet-50:
// each pass reports under its own name, conv→BN→ReLU and residual fusion both
// fire, and no batchnorm or residual add is left to run on its own.
func TestOptimizePipeline(t *testing.T) {
	g := FromModel(model.ResNet50("cifar10"))
	stats := []PassStats{g.FuseConvBNReLU(), g.FuseResidual(), g.FuseFCReLU()}
	for i, want := range []string{"operator-fusion", "residual-fusion", "fc-relu-fusion"} {
		if stats[i].Name != want {
			t.Fatalf("pass %d = %q, want %q", i, stats[i].Name, want)
		}
	}
	if stats[0].Applied == 0 || stats[1].Applied == 0 {
		t.Fatalf("pipeline fused nothing: %+v", stats)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.Op == "batchnorm" || n.Op == "add" {
			t.Fatalf("node %d: %s survived the pipeline", n.ID, n.Op)
		}
	}
}
