// Package modelfile implements the deployable compact-model artifact of the
// paper's Figure 7 ("compact model" + "opt-code for CPU/GPU" are what PatDNN
// ships to the phone): a single binary file holding the layerwise
// representation, the network topology, the FKW-compressed weights of every
// pattern-pruned conv layer, the dense 1×1/FC records, the BatchNorm
// parameters and a CRC32 integrity footer. A .patdnn is always a whole graph:
// the topology record says which operators surround the convs, so a loader
// never has to guess them.
//
// Layout (all integers little-endian):
//
//	magic   [8]byte  "PATDNN\x00\x02" (FP16 weights) or "PATDNN\x00\x03" (quantized)
//	lrLen   uint32   length of the LR JSON section
//	lr      []byte   lr.Representation JSON
//	quantBits uint8  (\x03 only) grid width, 2..8
//	nLayers uint32                       pattern-pruned 3×3 convs (standard,
//	                                     depthwise, transposed)
//	per layer:
//	  nameLen uint16, name []byte
//	  outC, inC, kh, kw uint16
//	  stride, pad uint16
//	  inH, inW, outH, outW uint16
//	  nPatterns uint16, patterns []uint16 (masks)
//	  offsets  [outC+1]int32
//	  reorder  [outC]uint16
//	  nKernels uint32, index [nKernels]uint16
//	  stride array [outC*(nPatterns+1)]uint16
//	  nWeights uint32, weights [nWeights]uint16 (binary16)
//	  bias [outC]uint16 (binary16)
//	nDense  uint32                       connectivity-pruned 1×1 convs + FC layers
//	per dense layer:
//	  nameLen uint16, name []byte
//	  kind    uint8   (0 = conv1x1, 1 = fc)
//	  outC    uint32, inC uint32
//	  stride, inH, inW, outH, outW uint16
//	  weights [outC*inC]uint16 (binary16; zeros outside kept kernels)
//	  hasBias uint8, bias [outC]uint16 (binary16, if hasBias)
//	nBN     uint32                       BatchNorm inference parameters (FP32)
//	per bn:
//	  nameLen uint16, name []byte
//	  c       uint32, eps float32
//	  gamma, beta, mean, var [c]float32 each
//	topoLen uint32, topo []byte          network topology JSON (layer list with
//	                                     kinds, shapes, shortcut edges); never
//	                                     empty
//	crc32   uint32 (IEEE, over everything before it)
//
// The quantized variant (\x03) stores each conv record's weights as one int8
// level per FKW weight plus one float32 scale per original output channel
// (internal/quant's symmetric per-filter encoding), ~4× smaller than the FP16
// stream; the weight subsection becomes
//
//	nWeights uint32
//	scales   [outC]float32   (indexed by original output channel)
//	qweights [nWeights]int8
//
// with biases staying FP16. The quantized grid is self-reproducing — the
// per-filter max-abs weight decodes to exactly ±limit — so read → write round
// trips are byte-exact in both variants.
//
// The version byte starts at 2: \x01 was a bare 3×3-conv trunk with no
// topology, whose loader inferred the pools between convs. Read names it in
// its error; nothing writes it.
package modelfile

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"patdnn/internal/compiler/lr"
	"patdnn/internal/fp16"
	"patdnn/internal/model"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
	"patdnn/internal/quant"
	"patdnn/internal/sparse"
)

var (
	magicV1 = [8]byte{'P', 'A', 'T', 'D', 'N', 'N', 0, 1} // retired; Read rejects it by name
	magicV2 = [8]byte{'P', 'A', 'T', 'D', 'N', 'N', 0, 2}
	magicV3 = [8]byte{'P', 'A', 'T', 'D', 'N', 'N', 0, 3}
)

// Layer couples a pruned conv with its bias for serialization.
type Layer struct {
	Conv *pruned.Conv
	Bias []float32 // len OutC; nil means all-zero
}

// Dense layer kinds.
const (
	DenseConv1x1 = 0
	DenseFC      = 1
)

// DenseLayer is a dense record: a connectivity-pruned 1×1 conv (weights
// [Co,Ci,1,1], zeros outside kept kernels) or a dense FC matrix ([Out,In]).
type DenseLayer struct {
	Name                 string
	Kind                 int // DenseConv1x1 or DenseFC
	OutC, InC            int
	Stride               int
	InH, InW, OutH, OutW int
	Weights              []float32 // len OutC*InC
	Bias                 []float32 // len OutC; nil means all-zero
}

// BNLayer is a record holding BatchNorm inference parameters (FP32 — they
// are tiny and they fold into conv weights, where FP16 rounding would
// compound).
type BNLayer struct {
	Name                   string
	Gamma, Beta, Mean, Var []float32
	Eps                    float32
}

// File is an in-memory deployable model: the LR, the conv/dense/BN parameter
// records, and the network topology the graph executor lowers end to end.
type File struct {
	LR     *lr.Representation
	Layers []Layer
	Dense  []DenseLayer
	BNs    []BNLayer
	// Net is the network topology (layer kinds, shapes, shortcut edges).
	// Mandatory: Write refuses a File without one and Read never returns one.
	Net *model.Model
	// QuantBits, when >= 2, marks a quantized artifact: conv weights are
	// stored as int8 levels with one float32 scale per output channel.
	QuantBits int
}

// quantized reports whether the file stores its conv weights quantized.
func (f *File) quantized() bool { return f.QuantBits >= 2 }

// Write serializes the model to w, FP16 or — when QuantBits requests it —
// with quantized conv weight storage.
func Write(w io.Writer, f *File) error {
	if f.Net == nil {
		return fmt.Errorf("modelfile: file has no topology (Net is nil); an artifact is always a whole graph")
	}
	if f.QuantBits != 0 && !f.quantized() {
		return fmt.Errorf("modelfile: QuantBits %d out of range %d..%d (0 disables)",
			f.QuantBits, quant.MinBits, quant.MaxBits)
	}
	var buf bytes.Buffer
	if f.quantized() {
		buf.Write(magicV3[:])
	} else {
		buf.Write(magicV2[:])
	}

	lrJSON, err := f.LR.Marshal()
	if err != nil {
		return fmt.Errorf("modelfile: %w", err)
	}
	put32(&buf, uint32(len(lrJSON)))
	buf.Write(lrJSON)

	if f.quantized() {
		if _, err := quant.Limit(f.QuantBits); err != nil {
			return fmt.Errorf("modelfile: %w", err)
		}
		buf.WriteByte(byte(f.QuantBits))
	}

	put32(&buf, uint32(len(f.Layers)))
	for _, layer := range f.Layers {
		c := layer.Conv
		if c.Weights == nil {
			return fmt.Errorf("modelfile: layer %s has no weights", c.Name)
		}
		fkw, err := sparse.Encode(c, nil)
		if err != nil {
			return fmt.Errorf("modelfile: %w", err)
		}
		if len(c.Name) > 0xffff {
			return fmt.Errorf("modelfile: layer name too long")
		}
		put16(&buf, uint16(len(c.Name)))
		buf.WriteString(c.Name)
		for _, v := range []int{c.OutC, c.InC, c.KH, c.KW, c.Stride, c.Pad,
			c.InH, c.InW, c.OutH, c.OutW} {
			if v < 0 || v > 0xffff {
				return fmt.Errorf("modelfile: layer %s: field %d out of uint16 range", c.Name, v)
			}
			put16(&buf, uint16(v))
		}
		put16(&buf, uint16(len(fkw.Patterns)))
		for _, p := range fkw.Patterns {
			put16(&buf, p.Mask)
		}
		for _, o := range fkw.Offset {
			putI32(&buf, o)
		}
		for _, r := range fkw.Reorder {
			put16(&buf, r)
		}
		put32(&buf, uint32(len(fkw.Index)))
		for _, ix := range fkw.Index {
			put16(&buf, ix)
		}
		for _, s := range fkw.Stride {
			put16(&buf, s)
		}
		if f.quantized() {
			q, err := quant.Quantize(fkw, f.QuantBits)
			if err != nil {
				return fmt.Errorf("modelfile: layer %s: %w", c.Name, err)
			}
			put32(&buf, uint32(len(q.Weights)))
			for _, s := range q.Scales {
				put32(&buf, math.Float32bits(s))
			}
			for _, lv := range q.Weights {
				buf.WriteByte(byte(lv))
			}
		} else {
			put32(&buf, uint32(len(fkw.Weights)))
			for _, wv := range fkw.Weights {
				put16(&buf, uint16(fp16.FromFloat32(wv)))
			}
		}
		bias := layer.Bias
		for i := 0; i < c.OutC; i++ {
			var b float32
			if bias != nil {
				b = bias[i]
			}
			put16(&buf, uint16(fp16.FromFloat32(b)))
		}
	}

	if err := writeGraph(&buf, f); err != nil {
		return err
	}

	sum := crc32.ChecksumIEEE(buf.Bytes())
	put32(&buf, sum)
	_, err = w.Write(buf.Bytes())
	return err
}

// writeGraph appends the dense layers, BN parameters and topology.
func writeGraph(buf *bytes.Buffer, f *File) error {
	put32(buf, uint32(len(f.Dense)))
	for _, d := range f.Dense {
		if len(d.Name) > 0xffff {
			return fmt.Errorf("modelfile: dense layer name too long")
		}
		if d.Kind != DenseConv1x1 && d.Kind != DenseFC {
			return fmt.Errorf("modelfile: dense layer %s has unknown kind %d", d.Name, d.Kind)
		}
		if len(d.Weights) != d.OutC*d.InC {
			return fmt.Errorf("modelfile: dense layer %s has %d weights, want %d",
				d.Name, len(d.Weights), d.OutC*d.InC)
		}
		if d.Bias != nil && len(d.Bias) != d.OutC {
			return fmt.Errorf("modelfile: dense layer %s has %d bias values, want %d",
				d.Name, len(d.Bias), d.OutC)
		}
		put16(buf, uint16(len(d.Name)))
		buf.WriteString(d.Name)
		buf.WriteByte(byte(d.Kind))
		put32(buf, uint32(d.OutC))
		put32(buf, uint32(d.InC))
		for _, v := range []int{d.Stride, d.InH, d.InW, d.OutH, d.OutW} {
			if v < 0 || v > 0xffff {
				return fmt.Errorf("modelfile: dense layer %s: field %d out of uint16 range", d.Name, v)
			}
			put16(buf, uint16(v))
		}
		for _, wv := range d.Weights {
			put16(buf, uint16(fp16.FromFloat32(wv)))
		}
		if d.Bias != nil {
			buf.WriteByte(1)
			for _, b := range d.Bias {
				put16(buf, uint16(fp16.FromFloat32(b)))
			}
		} else {
			buf.WriteByte(0)
		}
	}

	put32(buf, uint32(len(f.BNs)))
	for _, bn := range f.BNs {
		c := len(bn.Gamma)
		if len(bn.Beta) != c || len(bn.Mean) != c || len(bn.Var) != c {
			return fmt.Errorf("modelfile: bn %s has mismatched parameter lengths", bn.Name)
		}
		if len(bn.Name) > 0xffff {
			return fmt.Errorf("modelfile: bn name too long")
		}
		put16(buf, uint16(len(bn.Name)))
		buf.WriteString(bn.Name)
		put32(buf, uint32(c))
		put32(buf, math.Float32bits(bn.Eps))
		for _, arr := range [][]float32{bn.Gamma, bn.Beta, bn.Mean, bn.Var} {
			for _, v := range arr {
				put32(buf, math.Float32bits(v))
			}
		}
	}

	topo, err := marshalNet(f.Net)
	if err != nil {
		return err
	}
	put32(buf, uint32(len(topo)))
	buf.Write(topo)
	return nil
}

// Read deserializes and validates a model file, reconstructing each layer's
// pruned representation (weights decoded from FP16) and bias.
func Read(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("modelfile: %w", err)
	}
	if len(data) < len(magicV2)+8 {
		return nil, fmt.Errorf("modelfile: truncated file (%d bytes)", len(data))
	}
	if bytes.Equal(data[:8], magicV1[:]) {
		return nil, fmt.Errorf("modelfile: format v1 (a bare conv trunk with no topology record) is no longer readable; re-export the model as a graph artifact")
	}
	v3 := bytes.Equal(data[:8], magicV3[:])
	if !v3 && !bytes.Equal(data[:8], magicV2[:]) {
		return nil, fmt.Errorf("modelfile: bad magic or unsupported version")
	}
	body, footer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(footer) {
		return nil, fmt.Errorf("modelfile: checksum mismatch (corrupt file)")
	}

	d := &decoder{data: body, off: 8}
	lrLen := d.u32()
	lrJSON := d.bytes(int(lrLen))
	if d.err != nil {
		return nil, d.err
	}
	rep, err := lr.Unmarshal(lrJSON)
	if err != nil {
		return nil, fmt.Errorf("modelfile: %w", err)
	}
	out := &File{LR: rep}

	if v3 {
		out.QuantBits = int(d.u8())
		if d.err == nil {
			if _, err := quant.Limit(out.QuantBits); err != nil {
				return nil, fmt.Errorf("modelfile: %w", err)
			}
		}
	}

	nLayers := int(d.u32())
	for li := 0; li < nLayers && d.err == nil; li++ {
		name := string(d.bytes(int(d.u16())))
		geom := make([]int, 10)
		for i := range geom {
			geom[i] = int(d.u16())
		}
		nPat := int(d.u16())
		pats := make([]pattern.Pattern, nPat)
		for i := range pats {
			pats[i] = pattern.Pattern{Mask: d.u16(), K: geom[2]}
			// The executable kernels (and SavePruned's canonical sets) are
			// 4-entry only; a file carrying any other width is corrupt or
			// hostile, and letting it through would trip the executors'
			// unrolled-by-4 assumption much later.
			if d.err == nil && pats[i].Entries() != 4 {
				return nil, fmt.Errorf("modelfile: layer %s pattern %d has %d entries, want 4",
					name, i, pats[i].Entries())
			}
		}
		outC := geom[0]
		fkw := &sparse.FKW{
			OutC: outC, InC: geom[1], KH: geom[2], KW: geom[3],
			Patterns: pats,
		}
		fkw.Offset = make([]int32, outC+1)
		for i := range fkw.Offset {
			fkw.Offset[i] = d.i32()
		}
		fkw.Reorder = make([]uint16, outC)
		for i := range fkw.Reorder {
			fkw.Reorder[i] = d.u16()
		}
		nKernels := int(d.u32())
		fkw.Index = make([]uint16, nKernels)
		for i := range fkw.Index {
			fkw.Index[i] = d.u16()
		}
		fkw.Stride = make([]uint16, outC*(nPat+1))
		for i := range fkw.Stride {
			fkw.Stride[i] = d.u16()
		}
		nWeights := int(d.u32())
		var q8 *quant.FKW8
		if v3 {
			// Quantized weight subsection: per-filter scales then int8 levels.
			// The float32 stream is reconstructed below AFTER fkw.Validate()
			// has vetted the structural arrays the scale walk indexes.
			scales := make([]float32, outC)
			for i := range scales {
				scales[i] = math.Float32frombits(d.u32())
			}
			raw := d.bytes(nWeights)
			q8 = &quant.FKW8{Bits: out.QuantBits, Scales: scales, Weights: make([]int8, len(raw))}
			for i, b := range raw {
				q8.Weights[i] = int8(b)
			}
		} else {
			fkw.Weights = make([]float32, nWeights)
			for i := range fkw.Weights {
				fkw.Weights[i] = fp16.Bits(d.u16()).ToFloat32()
			}
		}
		bias := make([]float32, outC)
		for i := range bias {
			bias[i] = fp16.Bits(d.u16()).ToFloat32()
		}
		if d.err != nil {
			break
		}
		if q8 != nil {
			// Dequantize validates the FKW structure (reorder bounds, offset
			// monotonicity, stride-implied weight count) and the quantized
			// payload (finite positive scales, levels within the bit limit)
			// before touching either, so corrupt v3 bytes error here.
			w, err := q8.Dequantize(fkw)
			if err != nil {
				return nil, fmt.Errorf("modelfile: layer %s: %w", name, err)
			}
			fkw.Weights = w
		}

		// Rebuild the pruned representation from the FKW arrays. The file
		// bytes are untrusted: DecodeChecked validates the structure so a
		// corrupted stride/index table errors instead of panicking.
		dense, err := fkw.DecodeChecked()
		if err != nil {
			return nil, fmt.Errorf("modelfile: layer %s: %w", name, err)
		}
		conv := &pruned.Conv{
			Name: name, OutC: outC, InC: geom[1], KH: geom[2], KW: geom[3],
			Stride: geom[4], Pad: geom[5],
			InH: geom[6], InW: geom[7], OutH: geom[8], OutW: geom[9],
			Set: pats, IDs: make([]int, outC*geom[1]), Weights: dense,
		}
		// Recover kernel pattern IDs by walking the stride table.
		for pos := 0; pos < outC; pos++ {
			orig := int(fkw.Reorder[pos])
			for slot := range pats {
				start, end, _ := fkw.KernelsOf(pos, slot)
				for k := start; k < end; k++ {
					conv.IDs[orig*conv.InC+int(fkw.Index[k])] = slot + 1
				}
			}
		}
		if err := conv.Validate(); err != nil {
			return nil, fmt.Errorf("modelfile: layer %s invalid after decode: %w", name, err)
		}
		out.Layers = append(out.Layers, Layer{Conv: conv, Bias: bias})
	}
	if d.err != nil {
		return nil, d.err
	}
	if err := readGraph(d, out); err != nil {
		return nil, err
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("modelfile: %d trailing bytes after the topology record", len(d.data)-d.off)
	}
	return out, nil
}

// readGraph parses the dense, BN, and topology sections. Every length and
// geometry field is validated so a corrupt or crafted record errors instead
// of panicking (or allocating absurd buffers) later.
func readGraph(d *decoder, out *File) error {
	const maxDense = 1 << 28 // 256M weights ≈ 512 MB encoded; beyond is corrupt
	nDense := int(d.u32())
	for i := 0; i < nDense && d.err == nil; i++ {
		name := string(d.bytes(int(d.u16())))
		kind := int(d.u8())
		outC := int(d.u32())
		inC := int(d.u32())
		dl := DenseLayer{Name: name, Kind: kind, OutC: outC, InC: inC}
		dl.Stride = int(d.u16())
		dl.InH, dl.InW = int(d.u16()), int(d.u16())
		dl.OutH, dl.OutW = int(d.u16()), int(d.u16())
		if d.err != nil {
			break
		}
		if kind != DenseConv1x1 && kind != DenseFC {
			return fmt.Errorf("modelfile: dense layer %s has unknown kind %d", name, kind)
		}
		// Bound each factor before multiplying: outC and inC each come from a
		// uint32, so a crafted pair can overflow int in the product and slip
		// past a product-only bound into make().
		if outC < 1 || inC < 1 || outC > maxDense || inC > maxDense || outC*inC > maxDense {
			return fmt.Errorf("modelfile: dense layer %s has implausible shape %dx%d", name, outC, inC)
		}
		if kind == DenseConv1x1 && (dl.Stride < 1 || dl.InH < 1 || dl.InW < 1 ||
			dl.OutH != (dl.InH-1)/dl.Stride+1 || dl.OutW != (dl.InW-1)/dl.Stride+1) {
			return fmt.Errorf("modelfile: dense layer %s geometry is inconsistent", name)
		}
		if !d.need(2*outC*inC + 1) {
			break
		}
		dl.Weights = make([]float32, outC*inC)
		for j := range dl.Weights {
			dl.Weights[j] = fp16.Bits(d.u16()).ToFloat32()
		}
		if d.u8() == 1 {
			dl.Bias = make([]float32, outC)
			for j := range dl.Bias {
				dl.Bias[j] = fp16.Bits(d.u16()).ToFloat32()
			}
		}
		if d.err != nil {
			break
		}
		out.Dense = append(out.Dense, dl)
	}

	const maxChannels = 1 << 20
	nBN := int(d.u32())
	for i := 0; i < nBN && d.err == nil; i++ {
		name := string(d.bytes(int(d.u16())))
		c := int(d.u32())
		eps := math.Float32frombits(d.u32())
		if d.err != nil {
			break
		}
		if c < 1 || c > maxChannels {
			return fmt.Errorf("modelfile: bn %s has implausible channel count %d", name, c)
		}
		if !(eps > 0) || eps > 1 {
			return fmt.Errorf("modelfile: bn %s has implausible epsilon %g", name, eps)
		}
		bn := BNLayer{Name: name, Eps: eps}
		arrs := []*[]float32{&bn.Gamma, &bn.Beta, &bn.Mean, &bn.Var}
		if !d.need(16 * c) {
			break
		}
		for _, arr := range arrs {
			*arr = make([]float32, c)
			for j := range *arr {
				(*arr)[j] = math.Float32frombits(d.u32())
			}
		}
		out.BNs = append(out.BNs, bn)
	}

	topo := d.bytes(int(d.u32()))
	if d.err != nil {
		return d.err
	}
	if len(topo) == 0 {
		return fmt.Errorf("modelfile: artifact carries an empty topology record; nothing says which operators surround its convs")
	}
	net, err := unmarshalNet(topo)
	if err != nil {
		return err
	}
	out.Net = net
	// A conv record has no depthwise flag; the topology carries the layer
	// kind, so restore it (the executor's channel mapping needs it).
	kinds := make(map[string]model.OpKind, len(net.Layers))
	for _, l := range net.Layers {
		kinds[l.Name] = l.Kind
	}
	for _, layer := range out.Layers {
		if kinds[layer.Conv.Name] == model.DWConv {
			layer.Conv.Depthwise = true
		}
	}
	return nil
}

// decoder is a bounds-checked little-endian reader.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	// n < 0 guards callers whose length arithmetic overflowed on crafted
	// inputs: a negative need would otherwise pass the bounds check.
	if n < 0 || d.off+n > len(d.data) {
		d.err = fmt.Errorf("modelfile: truncated at offset %d", d.off)
		return false
	}
	return true
}

func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.data[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(d.data[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.data[d.off:])
	d.off += 4
	return v
}

func (d *decoder) i32() int32 { return int32(d.u32()) }

func (d *decoder) bytes(n int) []byte {
	if n < 0 || !d.need(n) {
		if d.err == nil {
			d.err = fmt.Errorf("modelfile: negative length")
		}
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

// netJSON is the topology wire form: model.Model with layer kinds spelled as
// strings, so the record stays readable and stable if OpKind values ever
// renumber.
type netJSON struct {
	Name    string      `json:"name"`
	Short   string      `json:"short"`
	Dataset string      `json:"dataset"`
	Classes int         `json:"classes"`
	InC     int         `json:"in_c"`
	InH     int         `json:"in_h"`
	InW     int         `json:"in_w"`
	Layers  []layerJSON `json:"layers"`
}

type layerJSON struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	InC        int    `json:"in_c,omitempty"`
	OutC       int    `json:"out_c,omitempty"`
	KH         int    `json:"kh,omitempty"`
	KW         int    `json:"kw,omitempty"`
	Stride     int    `json:"stride,omitempty"`
	Pad        int    `json:"pad,omitempty"`
	OutPad     int    `json:"out_pad,omitempty"`
	Groups     int    `json:"groups,omitempty"`
	InH        int    `json:"in_h,omitempty"`
	InW        int    `json:"in_w,omitempty"`
	OutH       int    `json:"out_h,omitempty"`
	OutW       int    `json:"out_w,omitempty"`
	HasBias    bool   `json:"has_bias,omitempty"`
	Projection bool   `json:"projection,omitempty"`
	ShortcutOf string `json:"shortcut_of,omitempty"`
}

var kindByName = map[string]model.OpKind{
	"input": model.Input, "conv": model.Conv, "dwconv": model.DWConv,
	"fc": model.FC, "maxpool": model.MaxPool, "avgpool": model.AvgPoolGlobal,
	"relu": model.ReLU, "batchnorm": model.BatchNorm, "add": model.Add,
	"flatten": model.Flatten, "softmax": model.SoftmaxOp,
	"convtranspose": model.ConvTranspose, "upsample": model.Upsample,
}

func marshalNet(m *model.Model) ([]byte, error) {
	nj := netJSON{
		Name: m.Name, Short: m.Short, Dataset: m.Dataset, Classes: m.Classes,
		InC: m.InC, InH: m.InH, InW: m.InW,
	}
	for _, l := range m.Layers {
		nj.Layers = append(nj.Layers, layerJSON{
			Name: l.Name, Kind: l.Kind.String(),
			InC: l.InC, OutC: l.OutC, KH: l.KH, KW: l.KW,
			Stride: l.Stride, Pad: l.Pad, OutPad: l.OutPad, Groups: l.Groups,
			InH: l.InH, InW: l.InW, OutH: l.OutH, OutW: l.OutW,
			HasBias: l.HasBias, Projection: l.Projection, ShortcutOf: l.ShortcutOf,
		})
	}
	return json.Marshal(nj)
}

func unmarshalNet(data []byte) (*model.Model, error) {
	var nj netJSON
	if err := json.Unmarshal(data, &nj); err != nil {
		return nil, fmt.Errorf("modelfile: topology record: %w", err)
	}
	if len(nj.Layers) == 0 {
		return nil, fmt.Errorf("modelfile: topology record holds no layers")
	}
	m := &model.Model{
		Name: nj.Name, Short: nj.Short, Dataset: nj.Dataset, Classes: nj.Classes,
		InC: nj.InC, InH: nj.InH, InW: nj.InW,
	}
	for _, lj := range nj.Layers {
		kind, ok := kindByName[lj.Kind]
		if !ok {
			return nil, fmt.Errorf("modelfile: topology layer %s has unknown kind %q", lj.Name, lj.Kind)
		}
		m.Layers = append(m.Layers, &model.Layer{
			Name: lj.Name, Kind: kind,
			InC: lj.InC, OutC: lj.OutC, KH: lj.KH, KW: lj.KW,
			Stride: lj.Stride, Pad: lj.Pad, OutPad: lj.OutPad, Groups: lj.Groups,
			InH: lj.InH, InW: lj.InW, OutH: lj.OutH, OutW: lj.OutW,
			HasBias: lj.HasBias, Projection: lj.Projection, ShortcutOf: lj.ShortcutOf,
		})
	}
	return m, nil
}

func put16(b *bytes.Buffer, v uint16) {
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], v)
	b.Write(tmp[:])
}

func put32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func putI32(b *bytes.Buffer, v int32) { put32(b, uint32(v)) }
