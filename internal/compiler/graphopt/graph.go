// Package graphopt implements the computational-graph level of PatDNN's
// compiler (paper Section 5, Table 1): the model is converted into a graph IR
// and optimized with operator fusion — conv→BN→ReLU chains (the BN's constants
// fold into the conv weights when execgraph lowers the node), residual adds
// into conv epilogues, and FC→ReLU. These are the passes execgraph.Compile
// runs; its static memory plan lives there too. The pattern-specific passes
// live in the sibling packages.
package graphopt

import (
	"fmt"

	"patdnn/internal/model"
)

// Node is one operator in the graph IR.
type Node struct {
	ID     int
	Op     string // "conv", "conv+relu", "conv+bn+relu", "fc", "add", ...
	Layer  *model.Layer
	Inputs []int
	// BN is the BatchNorm layer absorbed into this conv by operator fusion;
	// the executable lowering folds its scale/shift into the conv weights and
	// bias at compile time (nil when no BN was fused).
	BN *model.Layer
	// FusedReLU marks a conv/fc whose following ReLU runs as a fused epilogue.
	FusedReLU bool
	// Residual marks a conv that absorbed the residual Add feeding on its
	// output: Inputs[len(Inputs)-1] is the shortcut edge, and the executable
	// epilogue initializes the output with the shortcut instead of running a
	// separate elementwise pass.
	Residual bool
}

// Graph is a DAG of nodes in topological order (Inputs always reference
// lower IDs).
type Graph struct {
	Nodes []*Node
	// byName maps the producing model-layer name to node ID, for shortcuts.
	byName map[string]int
}

// FromModel lowers a model into the graph IR.
func FromModel(m *model.Model) *Graph {
	g := &Graph{byName: make(map[string]int)}
	prev := -1
	for _, l := range m.Layers {
		n := &Node{ID: len(g.Nodes), Op: l.Kind.String(), Layer: l}
		if prev >= 0 {
			n.Inputs = append(n.Inputs, prev)
		}
		if l.Kind == model.Add {
			// Inputs[0] is the main (conv) path, Inputs[1] the shortcut. When
			// a branch layer sits between the main path and the add — a ResNet
			// projection conv, or an SR-head skip upsample — prev IS the
			// branch: the add combines the node before the branch with the
			// branch's output, not the raw block input.
			if prev >= 0 && IsBranchLayer(g.Nodes[prev].Layer) {
				n.Inputs = nil
				if prev-1 >= 0 {
					n.Inputs = append(n.Inputs, prev-1)
				}
				n.Inputs = append(n.Inputs, prev)
			} else if l.ShortcutOf != "" {
				if src, ok := g.byName[l.ShortcutOf]; ok {
					n.Inputs = append(n.Inputs, src)
				}
			}
		}
		if IsBranchLayer(l) {
			// Branch layers feed from the referenced earlier layer, not prev.
			n.Inputs = nil
			if src, ok := g.byName[l.ShortcutOf]; ok {
				n.Inputs = append(n.Inputs, src)
			}
		}
		g.Nodes = append(g.Nodes, n)
		g.byName[l.Name] = n.ID
		prev = n.ID
	}
	return g
}

// IsBranchLayer reports whether l is a side-branch producer: it reads the
// layer named by ShortcutOf instead of the preceding layer, and the add that
// follows consumes its output as the shortcut operand. ResNet projection
// convs and skip upsamples (SR head) are the two branch forms. Exported so
// the dense reference walk applies the identical wiring rule.
func IsBranchLayer(l *model.Layer) bool {
	if l == nil {
		return false
	}
	return l.Projection || (l.Kind == model.Upsample && l.ShortcutOf != "")
}

// Validate checks topological ordering and input validity.
func (g *Graph) Validate() error {
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in < 0 || in >= len(g.Nodes) {
				return fmt.Errorf("graphopt: node %d references missing input %d", n.ID, in)
			}
			if in >= n.ID {
				return fmt.Errorf("graphopt: node %d not topologically ordered (input %d)", n.ID, in)
			}
		}
	}
	return nil
}

// consumers returns how many nodes consume each node's output.
func (g *Graph) consumers() []int {
	uses := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			uses[in]++
		}
	}
	return uses
}

// PassStats records what a pass changed.
type PassStats struct {
	Name    string
	Applied int
}

// FuseConvBNReLU merges conv→bn→relu, conv→bn, and conv→relu chains into
// single fused operators (operator fusion). Fusion requires the intermediate
// values to have a single consumer.
func (g *Graph) FuseConvBNReLU() PassStats {
	st := PassStats{Name: "operator-fusion"}
	uses := g.consumers()
	remove := make(map[int]bool)
	for _, n := range g.Nodes {
		if n.Op != "conv" && n.Op != "dwconv" && n.Op != "convtranspose" {
			continue
		}
		cur := n
		// Chain BN then ReLU greedily.
		for {
			next := g.soleConsumer(cur.ID, uses)
			if next == nil {
				break
			}
			if next.Op == "batchnorm" && !remove[next.ID] {
				n.Op += "+bn"
				n.BN = next.Layer
				remove[next.ID] = true
				cur = next
				st.Applied++
				continue
			}
			if next.Op == "relu" && !remove[next.ID] {
				n.Op += "+relu"
				n.FusedReLU = true
				remove[next.ID] = true
				cur = next
				st.Applied++
			}
			break
		}
	}
	g.contract(remove)
	return st
}

// FuseResidual merges each residual Add (and a ReLU immediately following it)
// into the conv producing the add's main input, so bottleneck tails never
// materialize a separate elementwise pass: the conv's epilogue initializes the
// output planes with the shortcut instead. The shortcut edge is appended to
// the conv's Inputs, which may break topological order (ResNet projection
// shortcuts are emitted after the main-path conv), so the pass finishes with a
// topological re-sort. Run after FuseConvBNReLU.
func (g *Graph) FuseResidual() PassStats {
	st := PassStats{Name: "residual-fusion"}
	uses := g.consumers()
	remove := make(map[int]bool)
	for _, n := range g.Nodes {
		if n.Layer == nil || n.Layer.Kind != model.Add || len(n.Inputs) != 2 {
			continue
		}
		main := g.Nodes[n.Inputs[0]]
		// The epilogue initializes the output before the conv accumulates, so
		// fusion requires the main input to be a conv (forward or transposed)
		// whose only consumer is this add, with no ReLU already fused (ReLU
		// must run after the add).
		if main.Layer == nil ||
			(!main.Layer.IsConv() && main.Layer.Kind != model.ConvTranspose) ||
			uses[main.ID] != 1 || main.FusedReLU || main.Residual {
			continue
		}
		main.Residual = true
		main.Inputs = append(main.Inputs, n.Inputs[1])
		main.Op += "+add"
		remove[n.ID] = true
		st.Applied++
		if next := g.soleConsumer(n.ID, uses); next != nil &&
			next.Op == "relu" && !remove[next.ID] {
			main.Op += "+relu"
			main.FusedReLU = true
			remove[next.ID] = true
			st.Applied++
		}
	}
	g.contract(remove)
	g.Sort()
	return st
}

// FuseFCReLU folds a ReLU whose sole producer is an FC layer into the FC's
// epilogue (the classifier-head analogue of conv+relu fusion). Kept separate
// from FuseConvBNReLU so the conv-fusion statistics stay comparable with the
// paper's.
func (g *Graph) FuseFCReLU() PassStats {
	st := PassStats{Name: "fc-relu-fusion"}
	uses := g.consumers()
	remove := make(map[int]bool)
	for _, n := range g.Nodes {
		if n.Op != "fc" {
			continue
		}
		if next := g.soleConsumer(n.ID, uses); next != nil &&
			next.Op == "relu" && !remove[next.ID] {
			n.Op += "+relu"
			n.FusedReLU = true
			remove[next.ID] = true
			st.Applied++
		}
	}
	g.contract(remove)
	return st
}

// Sort re-establishes topological order (Kahn's algorithm, stable on the
// current order) and renumbers IDs; fusion passes that introduce back-edges
// structurally (residual shortcuts pointing at later-emitted projections)
// call it to restore the Inputs-reference-lower-IDs invariant.
func (g *Graph) Sort() {
	n := len(g.Nodes)
	indeg := make([]int, n)
	out := make([][]int, n)
	for _, nd := range g.Nodes {
		for _, in := range nd.Inputs {
			indeg[nd.ID]++
			out[in] = append(out[in], nd.ID)
		}
	}
	var order []int
	var ready []int
	for _, nd := range g.Nodes {
		if indeg[nd.ID] == 0 {
			ready = append(ready, nd.ID)
		}
	}
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		for _, c := range out[id] {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	if len(order) != n {
		return // cyclic (corrupt) graph: leave as-is for Validate to report
	}
	newID := make([]int, n)
	kept := make([]*Node, n)
	for pos, id := range order {
		newID[id] = pos
	}
	for _, nd := range g.Nodes {
		for i, in := range nd.Inputs {
			nd.Inputs[i] = newID[in]
		}
	}
	for _, nd := range g.Nodes {
		pos := newID[nd.ID]
		nd.ID = pos
		kept[pos] = nd
	}
	g.Nodes = kept
	g.byName = make(map[string]int)
	for _, nd := range g.Nodes {
		if nd.Layer != nil {
			g.byName[nd.Layer.Name] = nd.ID
		}
	}
}

// soleConsumer returns the unique consumer of node id, or nil.
func (g *Graph) soleConsumer(id int, uses []int) *Node {
	if uses[id] != 1 {
		return nil
	}
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in == id {
				return n
			}
		}
	}
	return nil
}

// contract removes nodes, rewiring consumers to the removed node's first
// input, and renumbers IDs.
func (g *Graph) contract(remove map[int]bool) {
	if len(remove) == 0 {
		return
	}
	// Forward each removed node to its first input transitively.
	fwd := make([]int, len(g.Nodes))
	for i := range fwd {
		fwd[i] = i
	}
	for id := range remove {
		in := -1
		if len(g.Nodes[id].Inputs) > 0 {
			in = g.Nodes[id].Inputs[0]
		}
		fwd[id] = in
	}
	resolve := func(id int) int {
		for id >= 0 && remove[id] {
			id = fwd[id]
		}
		return id
	}
	var kept []*Node
	newID := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		if remove[n.ID] {
			newID[n.ID] = -1
			continue
		}
		newID[n.ID] = len(kept)
		kept = append(kept, n)
	}
	g.byName = make(map[string]int)
	for _, n := range kept {
		var ins []int
		for _, in := range n.Inputs {
			r := resolve(in)
			if r >= 0 {
				ins = append(ins, newID[r])
			}
		}
		n.Inputs = ins
		n.ID = newID[n.ID]
		if n.Layer != nil {
			g.byName[n.Layer.Name] = n.ID
		}
	}
	g.Nodes = kept
}
