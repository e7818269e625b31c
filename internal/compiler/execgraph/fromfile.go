package execgraph

import (
	"fmt"

	"patdnn/internal/model"
	"patdnn/internal/modelfile"
	"patdnn/internal/tensor"
)

// FromFile reconstructs the (model, parameters) pair of a deployed .patdnn
// artifact, shared by the serving registry loader and cmd/patdnn-run. The
// artifact carries its topology, so nothing is inferred: the work here is
// cross-validating every record against the topology before anything
// executes. Each section is individually well-formed after modelfile's
// checks, but a crafted (or miswritten) artifact can still pair a record with
// a topology layer of different shape, or name one layer twice — which would
// surface as an index-out-of-range panic inside BN folding or a kernel, or as
// one record silently shadowing another, instead of a quarantinable load
// error. name becomes the model's serving identity (Model.Short).
func FromFile(name string, mf *modelfile.File) (*model.Model, *Params, error) {
	if mf.Net == nil {
		return nil, nil, fmt.Errorf("execgraph: artifact %s has no topology", name)
	}
	layers := make(map[string]*model.Layer, len(mf.Net.Layers))
	for _, l := range mf.Net.Layers {
		if layers[l.Name] != nil {
			return nil, nil, fmt.Errorf("execgraph: artifact %s: topology names layer %q twice", name, l.Name)
		}
		layers[l.Name] = l
	}
	// A record names the one topology layer it parameterizes, so a name may
	// be claimed once across all three record sections.
	claimed := make(map[string]bool, len(mf.Layers)+len(mf.Dense)+len(mf.BNs))
	claim := func(kind, rec string, matches bool) error {
		if !matches {
			return fmt.Errorf("execgraph: artifact %s: %s record %q does not match the topology", name, kind, rec)
		}
		if claimed[rec] {
			return fmt.Errorf("execgraph: artifact %s: %s record %q is a duplicate", name, kind, rec)
		}
		claimed[rec] = true
		return nil
	}

	params := &Params{
		Convs: make(map[string]*ConvParams),
		Dense: make(map[string]*DenseParams),
		BNs:   make(map[string]*BNParams),
	}
	for _, layer := range mf.Layers {
		pc := layer.Conv
		l := layers[pc.Name]
		ok := l != nil && l.KH == pc.KH && l.KW == pc.KW &&
			l.OutC == pc.OutC && l.Stride == pc.Stride && l.Pad == pc.Pad &&
			l.InH == pc.InH && l.InW == pc.InW && l.OutH == pc.OutH && l.OutW == pc.OutW
		if ok {
			switch {
			case l.IsConv():
				ok = l.InC == pc.InChannels()
			case l.Kind == model.ConvTranspose:
				// Transposed-conv records ride the same wire format; the
				// output-geometry relation (incl. OutPad) is checked by
				// ValidateModel at compile time.
				ok = !pc.Depthwise && l.InC == pc.InC
			default:
				ok = false
			}
		}
		if err := claim("conv", pc.Name, ok); err != nil {
			return nil, nil, err
		}
		params.Convs[pc.Name] = &ConvParams{Conv: pc, Bias: layer.Bias}
	}
	for _, d := range mf.Dense {
		l := layers[d.Name]
		ok := l != nil && l.OutC == d.OutC && l.InC == d.InC
		shape := []int{d.OutC, d.InC}
		if d.Kind == modelfile.DenseConv1x1 {
			ok = ok && l.IsConv() && l.KH == 1 && l.KW == 1
			shape = append(shape, 1, 1)
		} else { // DenseFC (modelfile rejects other kinds at read time)
			ok = ok && l.Kind == model.FC
		}
		if err := claim("dense", d.Name, ok); err != nil {
			return nil, nil, err
		}
		params.Dense[d.Name] = &DenseParams{W: tensor.FromSlice(d.Weights, shape...), Bias: d.Bias}
	}
	for _, bn := range mf.BNs {
		l := layers[bn.Name]
		ok := l != nil && l.Kind == model.BatchNorm && len(bn.Gamma) == l.OutC
		if err := claim("batchnorm", bn.Name, ok); err != nil {
			return nil, nil, err
		}
		params.BNs[bn.Name] = &BNParams{
			Gamma: bn.Gamma, Beta: bn.Beta, Mean: bn.Mean, Var: bn.Var, Eps: bn.Eps,
		}
	}
	// The artifact name is the serving identity; the topology keeps its own
	// display name.
	m := *mf.Net
	m.Short = name
	return &m, params, nil
}
