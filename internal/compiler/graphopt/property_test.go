package graphopt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"patdnn/internal/model"
)

// fuse runs execgraph.Compile's pass schedule.
func fuse(g *Graph) {
	g.FuseConvBNReLU()
	g.FuseResidual()
	g.FuseFCReLU()
}

// Property: for every model, the fusion schedule preserves graph validity and
// never grows the node count.
func TestOptimizePropertyAllModels(t *testing.T) {
	models := model.All()
	f := func(pick uint8) bool {
		m := models[int(pick)%len(models)]
		g := FromModel(m)
		before := len(g.Nodes)
		fuse(g)
		return g.Validate() == nil && len(g.Nodes) <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: fusion never orphans a residual add — both inputs stay resolvable.
func TestFusionKeepsResidualInputs(t *testing.T) {
	for _, m := range []*model.Model{model.ResNet50("imagenet"), model.MobileNetV2("cifar10")} {
		g := FromModel(m)
		wantAdds := 0
		for _, n := range g.Nodes {
			if n.Op == "add" && len(n.Inputs) == 2 {
				wantAdds++
			}
		}
		g.FuseConvBNReLU()
		gotAdds := 0
		for _, n := range g.Nodes {
			if n.Op == "add" && len(n.Inputs) == 2 {
				gotAdds++
			}
		}
		if gotAdds != wantAdds {
			t.Fatalf("%s: residual adds %d -> %d after fusion", m.Name, wantAdds, gotAdds)
		}
	}
}

// randomLayeredModel emits a random but structurally legal layer chain —
// plain conv stacks, residual blocks with optional projections, classifier
// tails — exercising every shape the fusion passes pattern-match on. Only
// the fields the graph passes consult (Kind, Name, ShortcutOf, Projection)
// need to be meaningful.
func randomLayeredModel(r *rand.Rand) *model.Model {
	m := &model.Model{Name: "Rand", Short: "rand", Dataset: "synthetic", Classes: 4}
	id := 0
	mk := func(prefix string, kind model.OpKind) *model.Layer {
		id++
		l := &model.Layer{Name: fmt.Sprintf("%s%d", prefix, id), Kind: kind}
		m.Layers = append(m.Layers, l)
		return l
	}
	mk("input", model.Input)
	last := m.Layers[0].Name
	blocks := 1 + r.Intn(7)
	for b := 0; b < blocks; b++ {
		switch r.Intn(4) {
		case 0: // plain conv [+ bn] [+ relu]
			last = mk("conv", model.Conv).Name
			if r.Intn(2) == 0 {
				last = mk("bn", model.BatchNorm).Name
			}
			if r.Intn(2) == 0 {
				last = mk("relu", model.ReLU).Name
			}
		case 1: // residual block: convs, optional projection, add [+ relu]
			entry := last
			last = mk("conv", model.Conv).Name
			if r.Intn(2) == 0 {
				last = mk("bn", model.BatchNorm).Name
			}
			last = mk("relu", model.ReLU).Name
			last = mk("conv", model.Conv).Name
			if r.Intn(2) == 0 {
				last = mk("bn", model.BatchNorm).Name
			}
			if r.Intn(2) == 0 {
				proj := mk("proj", model.Conv)
				proj.Projection = true
				proj.ShortcutOf = entry
				last = proj.Name
			}
			add := mk("add", model.Add)
			add.ShortcutOf = entry
			last = add.Name
			if r.Intn(2) == 0 {
				last = mk("relu", model.ReLU).Name
			}
		case 2: // pool
			last = mk("pool", model.MaxPool).Name
		case 3: // classifier tail: fc [+ relu]
			last = mk("fc", model.FC).Name
			if r.Intn(2) == 0 {
				last = mk("relu", model.ReLU).Name
			}
		}
	}
	_ = last
	return m
}

// TestFusionPassesPreserveInvariantsOnRandomDAGs: for random layered models,
// every fusion pass (FuseConvBNReLU, FuseResidual, FuseFCReLU) must preserve
// acyclicity and topological validity, and its node-count accounting must
// balance — exactly one node leaves the graph per applied fusion step.
func TestFusionPassesPreserveInvariantsOnRandomDAGs(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := FromModel(randomLayeredModel(r))
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: FromModel: %v", seed, err)
		}
		passes := []struct {
			name string
			run  func() PassStats
		}{
			{"FuseConvBNReLU", g.FuseConvBNReLU},
			{"FuseResidual", g.FuseResidual},
			{"FuseFCReLU", g.FuseFCReLU},
		}
		for _, p := range passes {
			before := len(g.Nodes)
			st := p.run()
			if err := g.Validate(); err != nil {
				t.Fatalf("seed %d: %s broke the graph: %v", seed, p.name, err)
			}
			if removed := before - len(g.Nodes); removed != st.Applied {
				t.Fatalf("seed %d: %s removed %d nodes but reported %d applied",
					seed, p.name, removed, st.Applied)
			}
			for _, n := range g.Nodes {
				if n.Residual && len(n.Inputs) < 2 {
					t.Fatalf("seed %d: %s left residual conv %d without a shortcut edge", seed, p.name, n.ID)
				}
			}
		}
		// No fusible pattern may survive the pipeline: a remaining relu/bn
		// whose sole producer is a conv means a pass missed its own pattern.
		uses := g.consumers()
		for _, n := range g.Nodes {
			if n.Op != "relu" && n.Op != "batchnorm" {
				continue
			}
			if len(n.Inputs) != 1 {
				continue
			}
			prod := g.Nodes[n.Inputs[0]]
			if prod.Layer == nil || !prod.Layer.IsConv() || uses[prod.ID] != 1 {
				continue
			}
			if n.Op == "batchnorm" && prod.BN == nil {
				t.Fatalf("seed %d: unfused conv→bn chain survived (conv %d → bn %d)", seed, prod.ID, n.ID)
			}
			if n.Op == "relu" && !prod.FusedReLU {
				t.Fatalf("seed %d: unfused conv→relu chain survived (conv %d → relu %d)", seed, prod.ID, n.ID)
			}
		}
	}
}

// edgeSet captures the graph's edge relation by stable node names, so
// re-sorts and renumberings can be compared structurally.
func edgeSet(g *Graph) map[string]bool {
	set := make(map[string]bool)
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			set[g.Nodes[in].Layer.Name+"->"+n.Layer.Name] = true
		}
	}
	return set
}

// TestSortRestoresTopologyOnRandomDAGs: for random DAGs whose node IDs
// deliberately violate the Inputs-reference-lower-IDs invariant (the state
// residual fusion leaves behind), Sort must restore a valid topological
// order while preserving the node multiset and the edge relation exactly.
func TestSortRestoresTopologyOnRandomDAGs(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		// rank is a hidden topological order; edges only go rank-upward, so
		// the graph is acyclic no matter how IDs are assigned.
		rank := r.Perm(n)
		byRank := make([]int, n) // rank position -> node ID
		for id, rk := range rank {
			byRank[rk] = id
		}
		g := &Graph{byName: make(map[string]int)}
		for id := 0; id < n; id++ {
			nd := &Node{ID: id, Op: "conv",
				Layer: &model.Layer{Name: fmt.Sprintf("n%d", id), Kind: model.Conv}}
			g.Nodes = append(g.Nodes, nd)
			g.byName[nd.Layer.Name] = id
		}
		for id := 0; id < n; id++ {
			rk := rank[id]
			for e := 0; e < 1+r.Intn(2) && rk > 0; e++ {
				g.Nodes[id].Inputs = append(g.Nodes[id].Inputs, byRank[r.Intn(rk)])
			}
		}
		nodesBefore := len(g.Nodes)
		edgesBefore := edgeSet(g)

		g.Sort()
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: Sort left an invalid graph: %v", seed, err)
		}
		if len(g.Nodes) != nodesBefore {
			t.Fatalf("seed %d: Sort changed node count %d -> %d", seed, nodesBefore, len(g.Nodes))
		}
		edgesAfter := edgeSet(g)
		if len(edgesAfter) != len(edgesBefore) {
			t.Fatalf("seed %d: Sort changed edge count %d -> %d", seed, len(edgesBefore), len(edgesAfter))
		}
		for e := range edgesBefore {
			if !edgesAfter[e] {
				t.Fatalf("seed %d: Sort dropped edge %s", seed, e)
			}
		}
		for pos, nd := range g.Nodes {
			if nd.ID != pos {
				t.Fatalf("seed %d: node at position %d has ID %d", seed, pos, nd.ID)
			}
			if got := g.byName[nd.Layer.Name]; got != pos {
				t.Fatalf("seed %d: byName[%s] = %d, want %d", seed, nd.Layer.Name, got, pos)
			}
		}

		// Idempotence: a sorted graph re-sorts to the identical order.
		var order []string
		for _, nd := range g.Nodes {
			order = append(order, nd.Layer.Name)
		}
		g.Sort()
		for i, nd := range g.Nodes {
			if nd.Layer.Name != order[i] {
				t.Fatalf("seed %d: Sort not idempotent at position %d: %s vs %s",
					seed, i, nd.Layer.Name, order[i])
			}
		}
	}
}

// TestFullPipelinePlusResidualFusionOnRandomModels runs execgraph's pass
// schedule (FuseConvBNReLU → FuseResidual → FuseFCReLU) over random models
// and checks the end state once more — the composition, not just each pass
// in isolation.
func TestFullPipelinePlusResidualFusionOnRandomModels(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := randomLayeredModel(r)
		g := FromModel(m)
		before := len(g.Nodes)
		fuse(g)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: pipeline broke the graph: %v", seed, err)
		}
		if len(g.Nodes) > before {
			t.Fatalf("seed %d: pipeline grew the graph %d -> %d", seed, before, len(g.Nodes))
		}
		// Every model layer is either present as a node or fused away into
		// one: no layer may simply vanish unaccounted.
		seen := make(map[string]bool)
		for _, n := range g.Nodes {
			if n.Layer != nil {
				seen[n.Layer.Name] = true
			}
			if n.BN != nil {
				seen[n.BN.Name] = true
			}
		}
		fusedAway := 0
		for _, n := range g.Nodes {
			for _, tag := range []bool{n.FusedReLU, n.Residual} {
				if tag {
					fusedAway++
				}
			}
		}
		missing := 0
		for _, l := range m.Layers {
			if !seen[l.Name] {
				missing++
			}
		}
		if missing > fusedAway {
			t.Fatalf("seed %d: %d layers vanished but only %d fusion epilogues exist", seed, missing, fusedAway)
		}
	}
}
