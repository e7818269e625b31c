package codegen

// The PackedQ8 level: the packed walks of exec_packed.go over an int8 weight
// stream.
//
// Quantization is symmetric per filter (internal/quant): every weight of
// reordered filter position pos is scale[orig] × level. The drivers are the
// float32 level's own — rangeTiled and rangeResident branch per kernel call
// on which stream a run carries. The tiled walk widens the 8 levels of a
// kernel pair, scale folded in, once per tile sweep into pooled scratch
// (simd.WidenQ8) and runs the float32 tile; a run kernel widens each kernel's
// 4 levels in-register as it consumes them (VPMOVSXBD+VCVTDQ2PS on amd64) and
// applies the scale once to the finished sum.
//
// Either way the weight side stays a pure stream — now a quarter the bytes of
// the FP32 packed level, which is the point: more model versions resident
// under the registry's memory budget (VGG-16/cifar10: 4.96 vs 10.4 MB; the
// FKW indices and FC weights do not shrink). Compute is level with FP32.

import "patdnn/internal/quant"

// buildPackedQ8 quantizes the FKW weight stream at 8 bits and precompiles the
// per-filter run views over it. The float32 stream FKW.Weights is then
// dropped from the plan via a struct copy, as buildPacked drops Conv.Weights,
// so the int8 stream is the plan's only weight storage.
func (p *Plan) buildPackedQ8() error {
	q, err := quant.Quantize(p.FKW, 8)
	if err != nil {
		return err
	}
	p.q8Bytes = q.EncodedBytes()
	if err := p.buildPacked(q); err != nil {
		return err
	}
	fkw := *p.FKW
	fkw.Weights = nil
	p.FKW = &fkw
	return nil
}
