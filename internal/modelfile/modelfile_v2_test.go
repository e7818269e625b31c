package modelfile

// Graph-section coverage: full-graph round trips, the three rejections that
// make the topology mandatory (v1 magic, empty topology on read, nil Net on
// write), corrupt records must error — never panic — and a fuzz target
// hammers the reader with mutated bytes the way FuzzFKWRoundTrip hammers the
// FKW decoder.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"strings"
	"testing"

	"patdnn/internal/compiler/lr"
	"patdnn/internal/model"
	"patdnn/internal/pattern"
	"patdnn/internal/pruned"
)

// sampleV2File builds a small full-graph artifact: one 3×3 conv record, one
// depthwise conv record, a 1×1 conv and an FC dense record, a BN record, and
// the topology tying them together.
func sampleV2File(seed int64) *File {
	m := &model.Model{Name: "Tiny-Graph", Short: "TG", Dataset: "synthetic",
		Classes: 4, InC: 4, InH: 8, InW: 8}
	m.Layers = []*model.Layer{
		{Name: "input", Kind: model.Input, OutC: 4, OutH: 8, OutW: 8},
		{Name: "c3", Kind: model.Conv, InC: 4, OutC: 8, KH: 3, KW: 3, Stride: 1,
			Pad: 1, Groups: 1, InH: 8, InW: 8, OutH: 8, OutW: 8},
		{Name: "bn1", Kind: model.BatchNorm, InC: 8, OutC: 8, InH: 8, InW: 8, OutH: 8, OutW: 8},
		{Name: "relu1", Kind: model.ReLU, InC: 8, OutC: 8, InH: 8, InW: 8, OutH: 8, OutW: 8},
		{Name: "dw", Kind: model.DWConv, InC: 8, OutC: 8, KH: 3, KW: 3, Stride: 1,
			Pad: 1, Groups: 8, InH: 8, InW: 8, OutH: 8, OutW: 8},
		{Name: "p1", Kind: model.Conv, InC: 8, OutC: 8, KH: 1, KW: 1, Stride: 1,
			Groups: 1, InH: 8, InW: 8, OutH: 8, OutW: 8},
		{Name: "gap", Kind: model.AvgPoolGlobal, InC: 8, OutC: 8, InH: 8, InW: 8, OutH: 1, OutW: 1},
		{Name: "flat", Kind: model.Flatten, InC: 8, InH: 1, InW: 1, OutC: 8, OutH: 1, OutW: 1},
		{Name: "fc", Kind: model.FC, InC: 8, OutC: 4, HasBias: true, InH: 1, InW: 1, OutH: 1, OutW: 1},
		{Name: "softmax", Kind: model.SoftmaxOp, InC: 4, OutC: 4, OutH: 1, OutW: 1},
	}
	set := pattern.Canonical(8)
	rng := rand.New(rand.NewSource(seed))
	f := &File{LR: &lr.Representation{Model: m.Name, Device: "CPU"}, Net: m}
	for _, name := range []string{"c3", "dw"} {
		c := pruned.Generate(m.Layer(name), set, 2, seed, true)
		bias := make([]float32, c.OutC)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64()) * 0.1
		}
		f.Layers = append(f.Layers, Layer{Conv: c, Bias: bias})
	}
	w1 := make([]float32, 8*8)
	for i := range w1 {
		if i%3 != 0 { // sparse: pruned 1x1
			w1[i] = float32(rng.NormFloat64()) * 0.2
		}
	}
	f.Dense = append(f.Dense, DenseLayer{
		Name: "p1", Kind: DenseConv1x1, OutC: 8, InC: 8, Stride: 1,
		InH: 8, InW: 8, OutH: 8, OutW: 8, Weights: w1,
	})
	wf := make([]float32, 4*8)
	bf := make([]float32, 4)
	for i := range wf {
		wf[i] = float32(rng.NormFloat64()) * 0.2
	}
	for i := range bf {
		bf[i] = float32(rng.NormFloat64()) * 0.1
	}
	f.Dense = append(f.Dense, DenseLayer{
		Name: "fc", Kind: DenseFC, OutC: 4, InC: 8, Weights: wf, Bias: bf,
	})
	bn := BNLayer{Name: "bn1", Eps: 1e-5}
	for i := 0; i < 8; i++ {
		bn.Gamma = append(bn.Gamma, 1+0.1*float32(i))
		bn.Beta = append(bn.Beta, 0.01*float32(i))
		bn.Mean = append(bn.Mean, -0.02*float32(i))
		bn.Var = append(bn.Var, 0.5+0.05*float32(i))
	}
	f.BNs = append(f.BNs, bn)
	return f
}

// sampleImg2ImgFile builds a small image-to-image artifact: a transposed-conv
// record (out_pad carried in the topology), an upsample skip branch, and the
// residual add tying them together — the node kinds the SR generator serves.
func sampleImg2ImgFile(seed int64) *File {
	m := &model.Model{Name: "Tiny-I2I", Short: "TI", Dataset: "synthetic",
		InC: 2, InH: 6, InW: 6}
	m.Layers = []*model.Layer{
		{Name: "input", Kind: model.Input, OutC: 2, OutH: 6, OutW: 6},
		{Name: "up", Kind: model.ConvTranspose, InC: 2, OutC: 2, KH: 3, KW: 3,
			Stride: 2, Pad: 1, OutPad: 1, Groups: 1,
			InH: 6, InW: 6, OutH: 12, OutW: 12, HasBias: true},
		{Name: "relu1", Kind: model.ReLU, InC: 2, OutC: 2, InH: 12, InW: 12, OutH: 12, OutW: 12},
		{Name: "us", Kind: model.Upsample, InC: 2, OutC: 2, Stride: 2,
			InH: 6, InW: 6, OutH: 12, OutW: 12, ShortcutOf: "input"},
		{Name: "add1", Kind: model.Add, InC: 2, OutC: 2, InH: 12, InW: 12,
			OutH: 12, OutW: 12, ShortcutOf: "input"},
	}
	set := pattern.Canonical(8)
	rng := rand.New(rand.NewSource(seed))
	f := &File{LR: &lr.Representation{Model: m.Name, Device: "CPU"}, Net: m}
	c := pruned.Generate(m.Layer("up"), set, 2, seed, true)
	bias := make([]float32, c.OutC)
	for i := range bias {
		bias[i] = float32(rng.NormFloat64()) * 0.1
	}
	f.Layers = append(f.Layers, Layer{Conv: c, Bias: bias})
	return f
}

func TestImg2ImgTopologyRoundTrip(t *testing.T) {
	f := sampleImg2ImgFile(71)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	up := got.Net.Layer("up")
	if up == nil || up.Kind != model.ConvTranspose || up.OutPad != 1 || up.Stride != 2 {
		t.Fatalf("transposed conv did not round-trip: %+v", up)
	}
	us := got.Net.Layer("us")
	if us == nil || us.Kind != model.Upsample || us.Stride != 2 || us.ShortcutOf != "input" {
		t.Fatalf("upsample branch did not round-trip: %+v", us)
	}
	// The conv record must not pick up the depthwise flag (the restoration
	// keys on the dwconv topology kind only).
	if got.Layers[0].Conv.Depthwise {
		t.Fatal("transposed-conv record mis-marked depthwise on read")
	}
}

// craftedEmpty hand-assembles a CRC-valid artifact holding no records in the
// layout its magic announces: v1 ends after the conv section; v2 and v3 go on
// to empty dense and BN sections and a zero-length topology record.
func craftedEmpty(t testing.TB, magic [8]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(magic[:])
	lrJSON, err := (&lr.Representation{Model: "crafted", Device: "CPU"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	put32(&buf, uint32(len(lrJSON)))
	buf.Write(lrJSON)
	if magic == magicV3 {
		buf.WriteByte(8) // quantBits
	}
	put32(&buf, 0) // no conv layers
	if magic != magicV1 {
		put32(&buf, 0) // no dense records
		put32(&buf, 0) // no BN records
		put32(&buf, 0) // zero-length topology
	}
	put32(&buf, crcOf(buf.Bytes()))
	return buf.Bytes()
}

// TestTopologyIsMandatory pins the three rejections that leave one loader
// path: a v1 file (whose loader inferred the operators between convs), a
// v2/v3 file with an empty topology record, and a File with no Net handed to
// Write. Each error names its cause.
func TestTopologyIsMandatory(t *testing.T) {
	for _, tc := range []struct {
		name  string
		magic [8]byte
		want  string
	}{
		{"v1-magic", magicV1, "format v1"},
		{"v2-empty-topology", magicV2, "empty topology"},
		{"v3-empty-topology", magicV3, "empty topology"},
	} {
		_, err := Read(bytes.NewReader(craftedEmpty(t, tc.magic)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Read = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	f := sampleV2File(21)
	f.Net = nil
	if err := Write(io.Discard, f); err == nil || !strings.Contains(err.Error(), "no topology") {
		t.Fatalf("Write with nil Net = %v, want the missing-topology error", err)
	}
}

func TestV2RoundTrip(t *testing.T) {
	f := sampleV2File(31)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes()[:8], magicV2[:]) {
		t.Fatalf("v2 content wrote magic %v", buf.Bytes()[:8])
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Net == nil || len(got.Net.Layers) != len(f.Net.Layers) {
		t.Fatalf("topology did not round-trip: %+v", got.Net)
	}
	for i, l := range f.Net.Layers {
		g := got.Net.Layers[i]
		if g.Name != l.Name || g.Kind != l.Kind || g.OutC != l.OutC ||
			g.Stride != l.Stride || g.ShortcutOf != l.ShortcutOf {
			t.Fatalf("topology layer %d mismatch: %+v vs %+v", i, g, l)
		}
	}
	// The depthwise flag is restored from the topology.
	var dw *pruned.Conv
	for _, layer := range got.Layers {
		if layer.Conv.Name == "dw" {
			dw = layer.Conv
		}
	}
	if dw == nil || !dw.Depthwise {
		t.Fatalf("depthwise conv lost its flag: %+v", dw)
	}
	if len(got.Dense) != 2 || len(got.BNs) != 1 {
		t.Fatalf("records: %d dense / %d bn, want 2/1", len(got.Dense), len(got.BNs))
	}
	d := got.Dense[0]
	if d.Kind != DenseConv1x1 || d.OutC != 8 || d.InC != 8 || d.Bias != nil {
		t.Fatalf("dense[0] = %+v", d)
	}
	for i, w := range f.Dense[0].Weights {
		if diff := float64(d.Weights[i] - w); diff > 2e-3 || diff < -2e-3 {
			t.Fatalf("1x1 weight %d diff %g beyond FP16 tolerance", i, diff)
		}
		if w == 0 && d.Weights[i] != 0 {
			t.Fatalf("pruned zero at %d decoded nonzero", i)
		}
	}
	if got.Dense[1].Kind != DenseFC || len(got.Dense[1].Bias) != 4 {
		t.Fatalf("dense[1] = %+v", got.Dense[1])
	}
	bn := got.BNs[0]
	for i := range bn.Gamma { // BN params are FP32: exact round trip
		if bn.Gamma[i] != f.BNs[0].Gamma[i] || bn.Var[i] != f.BNs[0].Var[i] {
			t.Fatalf("bn params drifted at %d", i)
		}
	}
}

// TestV2CorruptRecordsErrorNotPanic flips/truncates v2 section bytes (with a
// recomputed CRC, so the corruption reaches the record parsers) and demands a
// clean error every time.
func TestV2CorruptRecordsErrorNotPanic(t *testing.T) {
	f := sampleV2File(41)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	mutations := []struct {
		name    string
		mustErr bool
		mutate  func([]byte) []byte
	}{
		// The topology JSON is the last section before the CRC: zeroing its
		// closing byte breaks the record deterministically.
		{"corrupt-topo-json", true, func(b []byte) []byte { b[len(b)-5] = 0; return b }},
		{"truncate-1", true, func(b []byte) []byte { return b[:len(b)-1] }},
		{"truncate-inside-topo", true, func(b []byte) []byte { return b[:len(b)-12] }},
		{"truncate-half", true, func(b []byte) []byte { return b[:len(b)/2] }},
		{"trailing-garbage", true, func(b []byte) []byte { return append(b, 0, 1, 2, 3) }},
		// A flipped byte mid-file may land in weight payload (legal content):
		// reading it must never panic, whatever it decodes to.
		{"flip-middle-byte", false, func(b []byte) []byte { b[len(b)/2] ^= 0xff; return b }},
	}
	for _, mu := range mutations {
		b := mu.mutate(append([]byte(nil), good...))
		// Recompute the CRC so corruption reaches the structural validators
		// (a checksum mismatch alone would not exercise them).
		if len(b) >= 12 {
			sum := crcOf(b[:len(b)-4])
			b[len(b)-4] = byte(sum)
			b[len(b)-3] = byte(sum >> 8)
			b[len(b)-2] = byte(sum >> 16)
			b[len(b)-1] = byte(sum >> 24)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: Read panicked: %v", mu.name, r)
				}
			}()
			if _, err := Read(bytes.NewReader(b)); err == nil && mu.mustErr {
				t.Fatalf("%s: corrupt v2 file accepted", mu.name)
			}
		}()
	}
}

func crcOf(b []byte) uint32 {
	return crc32.ChecksumIEEE(b)
}

// FuzzModelFileRead hammers the reader with mutated artifacts: any input may
// be rejected, none may panic or hang, and a file that reads successfully
// must re-serialize.
func FuzzModelFileRead(f *testing.F) {
	var v2 bytes.Buffer
	if err := Write(&v2, sampleV2File(52)); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add([]byte("PATDNN\x00\x02garbage"))
	var v3 bytes.Buffer
	if err := Write(&v3, sampleV3File(52, 8)); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add([]byte("PATDNN\x00\x03garbage"))
	// v3 corruption-class seeds: bad scale, truncated int8 section, trailing
	// bytes (each with a recomputed CRC so the damage reaches the parsers).
	scaleOff, weightOff, nWeights := 0, 0, 0
	func() {
		var t testing.T
		scaleOff, weightOff, nWeights = v3WeightSection(&t, v3.Bytes())
	}()
	reseal := func(b []byte) []byte {
		sum := crcOf(b[:len(b)-4])
		binary.LittleEndian.PutUint32(b[len(b)-4:], sum)
		return b
	}
	badScale := append([]byte(nil), v3.Bytes()...)
	binary.LittleEndian.PutUint32(badScale[scaleOff:], 0x7fc00000)
	f.Add(reseal(badScale))
	truncated := append([]byte(nil), v3.Bytes()[:weightOff+nWeights/2]...)
	truncated = append(truncated, v3.Bytes()[weightOff+nWeights/2+5:]...)
	f.Add(reseal(truncated))
	trailing := append(append([]byte(nil), v3.Bytes()...), 0xca, 0xfe)
	f.Add(reseal(trailing))
	// Image-to-image seeds: an artifact whose topology carries transposed-conv
	// and upsample node kinds (with out_pad), plus crafted corrupt-shape
	// variants. Same-length replacements keep the length-prefixed topology
	// section parseable, so the damage reaches the JSON decoder and the shape
	// fields rather than dying at the framing layer.
	var i2i bytes.Buffer
	if err := Write(&i2i, sampleImg2ImgFile(63)); err != nil {
		f.Fatal(err)
	}
	f.Add(i2i.Bytes())
	badKind := bytes.Replace(append([]byte(nil), i2i.Bytes()...),
		[]byte(`"convtranspose"`), []byte(`"convtransposX"`), 1)
	f.Add(reseal(badKind))
	badUp := bytes.Replace(append([]byte(nil), i2i.Bytes()...),
		[]byte(`"upsample"`), []byte(`"upsampl!"`), 1)
	f.Add(reseal(badUp))
	badPad := bytes.Replace(append([]byte(nil), i2i.Bytes()...),
		[]byte(`"out_pad":1`), []byte(`"out_pad":9`), 1)
	f.Add(reseal(badPad))
	badShape := bytes.Replace(append([]byte(nil), i2i.Bytes()...),
		[]byte(`"out_h":12`), []byte(`"out_h":-2`), 1)
	f.Add(reseal(badShape))
	// A 1×1 conv whose topology entry declares an output one row taller than
	// its input and stride allow, with the layers after it agreeing (the dense
	// record stays honest; the reader checks that one): every section is
	// well-formed, so the file reads back, and the lie must then die in
	// codegen.Compile1x1Pruned (execgraph's
	// TestCorruptGeometry1x1RejectedAtCompile) — the tile kernels behind it
	// are not bounds-checked.
	tall := sampleV2File(52)
	tall.Net.Layer("p1").OutH = 9
	tall.Net.Layer("gap").InH = 9
	var tall1x1 bytes.Buffer
	if err := Write(&tall1x1, tall); err != nil {
		f.Fatal(err)
	}
	f.Add(tall1x1.Bytes())
	// Two dense records with one name: both well-formed, so the file reads
	// back and re-serializes; execgraph.FromFile must refuse it
	// (TestFromFileRejectsDuplicateNames) rather than let the second shadow
	// the first.
	dup := sampleV2File(52)
	dup.Dense = append(dup.Dense, dup.Dense[0])
	var dupDense bytes.Buffer
	if err := Write(&dupDense, dup); err != nil {
		f.Fatal(err)
	}
	f.Add(dupDense.Bytes())
	// Must-reject seeds: a well-formed v1 file, and v2/v3 files whose
	// topology record is empty.
	f.Add(craftedEmpty(f, magicV1))
	f.Add(craftedEmpty(f, magicV2))
	f.Add(craftedEmpty(f, magicV3))
	f.Fuzz(func(t *testing.T, data []byte) {
		mf, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if mf.Net == nil || len(mf.Net.Layers) == 0 {
			t.Fatal("Read returned a file without a topology")
		}
		var out bytes.Buffer
		if err := Write(&out, mf); err != nil {
			t.Fatalf("decoded file failed to re-serialize: %v", err)
		}
	})
}

// TestV2CraftedOverflowingDenseShape pins the integer-overflow guard: a
// CRC-valid v2 file whose dense record declares outC=inC=0xffffffff must be
// rejected — the product wraps negative on 64-bit int, and before the
// per-factor bound this slipped past the shape check into a panicking make().
func TestV2CraftedOverflowingDenseShape(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magicV2[:])
	lrJSON, err := (&lr.Representation{Model: "crafted", Device: "CPU"}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	put32(&buf, uint32(len(lrJSON)))
	buf.Write(lrJSON)
	put32(&buf, 0) // no conv layers
	put32(&buf, 1) // one dense record
	put16(&buf, 1)
	buf.WriteString("x")
	buf.WriteByte(DenseFC)
	put32(&buf, 0xffffffff) // outC
	put32(&buf, 0xffffffff) // inC
	for i := 0; i < 5; i++ {
		put16(&buf, 1) // stride, inH, inW, outH, outW
	}
	put32(&buf, crcOf(buf.Bytes()))
	if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("crafted overflowing dense shape accepted")
	}
}
