package tensor

import "fmt"

// Convolution and pooling reference implementations. These are the ground
// truth the compiled sparse kernels in internal/compiler/codegen are checked
// against, and the compute core of the training substrate.

// ConvSpec describes a 2-D convolution: kernel size, stride, and symmetric
// zero padding.
type ConvSpec struct {
	Stride int
	Pad    int
}

// ConvOutDim returns the output spatial size for input size in, kernel k,
// stride s, and padding p.
func ConvOutDim(in, k, s, p int) int {
	return (in+2*p-k)/s + 1
}

// Conv2D computes a direct 2-D convolution.
//
//	input:  [Ci, H, W]
//	weight: [Co, Ci, Kh, Kw]
//	bias:   [Co] or nil
//	output: [Co, Ho, Wo]
func Conv2D(input, weight, bias *Tensor, spec ConvSpec) *Tensor {
	ci, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	co, wci, kh, kw := weight.Dim(0), weight.Dim(1), weight.Dim(2), weight.Dim(3)
	if ci != wci {
		panic("tensor: Conv2D channel mismatch")
	}
	ho := ConvOutDim(h, kh, spec.Stride, spec.Pad)
	wo := ConvOutDim(w, kw, spec.Stride, spec.Pad)
	out := New(co, ho, wo)
	for oc := 0; oc < co; oc++ {
		var b float32
		if bias != nil {
			b = bias.Data[oc]
		}
		for oh := 0; oh < ho; oh++ {
			for ow := 0; ow < wo; ow++ {
				acc := b
				for ic := 0; ic < ci; ic++ {
					for r := 0; r < kh; r++ {
						ih := oh*spec.Stride + r - spec.Pad
						if ih < 0 || ih >= h {
							continue
						}
						for c := 0; c < kw; c++ {
							iw := ow*spec.Stride + c - spec.Pad
							if iw < 0 || iw >= w {
								continue
							}
							acc += input.Data[(ic*h+ih)*w+iw] *
								weight.Data[((oc*ci+ic)*kh+r)*kw+c]
						}
					}
				}
				out.Data[(oc*ho+oh)*wo+ow] = acc
			}
		}
	}
	return out
}

// Im2Col lowers the input [Ci,H,W] into a matrix of shape
// [Ci*Kh*Kw, Ho*Wo] so that convolution becomes a GEMM with the weight
// matrix [Co, Ci*Kh*Kw].
func Im2Col(input *Tensor, kh, kw int, spec ConvSpec) *Tensor {
	ci, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	ho := ConvOutDim(h, kh, spec.Stride, spec.Pad)
	wo := ConvOutDim(w, kw, spec.Stride, spec.Pad)
	cols := New(ci*kh*kw, ho*wo)
	row := 0
	for ic := 0; ic < ci; ic++ {
		for r := 0; r < kh; r++ {
			for c := 0; c < kw; c++ {
				dst := cols.Data[row*ho*wo : (row+1)*ho*wo]
				for oh := 0; oh < ho; oh++ {
					ih := oh*spec.Stride + r - spec.Pad
					for ow := 0; ow < wo; ow++ {
						iw := ow*spec.Stride + c - spec.Pad
						if ih >= 0 && ih < h && iw >= 0 && iw < w {
							dst[oh*wo+ow] = input.Data[(ic*h+ih)*w+iw]
						} else {
							dst[oh*wo+ow] = 0
						}
					}
				}
				row++
			}
		}
	}
	return cols
}

// MatMul computes C = A·B for A [m,k] and B [k,n] with simple register
// blocking; good enough for the training substrate.
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic("tensor: MatMul inner dimension mismatch")
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		ci := c.Data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			if av == 0 {
				continue
			}
			bp := b.Data[p*n : (p+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
	return c
}

// Conv2DIm2Col computes the same result as Conv2D via im2col + GEMM.
func Conv2DIm2Col(input, weight, bias *Tensor, spec ConvSpec) *Tensor {
	co, ci, kh, kw := weight.Dim(0), weight.Dim(1), weight.Dim(2), weight.Dim(3)
	cols := Im2Col(input, kh, kw, spec)
	wmat := weight.Reshape(co, ci*kh*kw)
	out := MatMul(wmat, cols)
	ho := ConvOutDim(input.Dim(1), kh, spec.Stride, spec.Pad)
	wo := ConvOutDim(input.Dim(2), kw, spec.Stride, spec.Pad)
	res := out.Reshape(co, ho, wo)
	if bias != nil {
		for oc := 0; oc < co; oc++ {
			b := bias.Data[oc]
			plane := res.Data[oc*ho*wo : (oc+1)*ho*wo]
			for i := range plane {
				plane[i] += b
			}
		}
	}
	return res
}

// Col2Im accumulates a column matrix [Ci*Kh*Kw, Ho*Wo] back into an input
// gradient [Ci,H,W]; the adjoint of Im2Col, used by convolution backprop.
func Col2Im(cols *Tensor, ci, h, w, kh, kw int, spec ConvSpec) *Tensor {
	ho := ConvOutDim(h, kh, spec.Stride, spec.Pad)
	wo := ConvOutDim(w, kw, spec.Stride, spec.Pad)
	out := New(ci, h, w)
	row := 0
	for ic := 0; ic < ci; ic++ {
		for r := 0; r < kh; r++ {
			for c := 0; c < kw; c++ {
				src := cols.Data[row*ho*wo : (row+1)*ho*wo]
				for oh := 0; oh < ho; oh++ {
					ih := oh*spec.Stride + r - spec.Pad
					if ih < 0 || ih >= h {
						continue
					}
					for ow := 0; ow < wo; ow++ {
						iw := ow*spec.Stride + c - spec.Pad
						if iw < 0 || iw >= w {
							continue
						}
						out.Data[(ic*h+ih)*w+iw] += src[oh*wo+ow]
					}
				}
				row++
			}
		}
	}
	return out
}

// MatMulT1 computes C = Aᵀ·B for A [k,m] and B [k,n], yielding [m,n].
func MatMulT1(a, b *Tensor) *Tensor {
	k, m := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic("tensor: MatMulT1 inner dimension mismatch")
	}
	c := New(m, n)
	for p := 0; p < k; p++ {
		ap := a.Data[p*m : (p+1)*m]
		bp := b.Data[p*n : (p+1)*n]
		for i, av := range ap {
			if av == 0 {
				continue
			}
			ci := c.Data[i*n : (i+1)*n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
	return c
}

// MatMulT2 computes C = A·Bᵀ for A [m,k] and B [n,k], yielding [m,n].
func MatMulT2(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n, k2 := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic("tensor: MatMulT2 inner dimension mismatch")
	}
	c := New(m, n)
	for i := 0; i < m; i++ {
		ai := a.Data[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			bj := b.Data[j*k : (j+1)*k]
			var s float32
			for p, av := range ai {
				s += av * bj[p]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

// ConvTransposeOutDim returns the output spatial size of a transposed
// convolution for input size in, kernel k, stride s, padding p, and output
// padding op (extra rows/columns appended at the bottom/right edge so that
// e.g. a k=3, s=2, p=1 head maps 32 -> 64 exactly instead of 63).
func ConvTransposeOutDim(in, k, s, p, op int) int {
	return (in-1)*s - 2*p + k + op
}

// ConvTranspose2D computes a direct 2-D transposed convolution (the adjoint
// of Conv2D's input->output map), the upsampling operator of
// super-resolution-style generator heads.
//
//	input:  [Ci, H, W]
//	weight: [Co, Ci, Kh, Kw]  (same layout as Conv2D / pruned.Conv)
//	bias:   [Co] or nil
//	output: [Co, (H-1)s-2p+Kh+op, (W-1)s-2p+Kw+op]
//
// Each input element scatters through the kernel: out[oc][ih*s-p+r][iw*s-p+c]
// += in[ic][ih][iw] * w[oc][ic][r][c].
func ConvTranspose2D(input, weight, bias *Tensor, stride, pad, outPad int) *Tensor {
	co := weight.Dim(0)
	ho := ConvTransposeOutDim(input.Dim(1), weight.Dim(2), stride, pad, outPad)
	wo := ConvTransposeOutDim(input.Dim(2), weight.Dim(3), stride, pad, outPad)
	out := New(co, ho, wo)
	ConvTranspose2DInto(input, weight, bias, stride, pad, out)
	return out
}

// ConvTranspose2DInto is the scratch-buffer form of ConvTranspose2D: it
// writes into a caller-provided output tensor whose contents may be garbage
// (every element is overwritten — the scatter zero-initializes first). The
// output tensor's spatial dims determine the effective output padding.
func ConvTranspose2DInto(input, weight, bias *Tensor, stride, pad int, out *Tensor) {
	ci, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	co, wci, kh, kw := weight.Dim(0), weight.Dim(1), weight.Dim(2), weight.Dim(3)
	if ci != wci {
		panic("tensor: ConvTranspose2D channel mismatch")
	}
	if stride < 1 {
		panic("tensor: ConvTranspose2D stride must be >= 1")
	}
	ho, wo := out.Dim(1), out.Dim(2)
	if out.Dim(0) != co || ho < ConvTransposeOutDim(h, kh, stride, pad, 0) ||
		wo < ConvTransposeOutDim(w, kw, stride, pad, 0) {
		panic(fmt.Sprintf("tensor: ConvTranspose2D output [%d,%d,%d] too small for input [%d,%d,%d] k=%dx%d s=%d p=%d",
			out.Dim(0), ho, wo, ci, h, w, kh, kw, stride, pad))
	}
	for oc := 0; oc < co; oc++ {
		plane := out.Data[oc*ho*wo : (oc+1)*ho*wo]
		var b float32
		if bias != nil {
			b = bias.Data[oc]
		}
		for i := range plane {
			plane[i] = b
		}
		for ic := 0; ic < ci; ic++ {
			kbase := ((oc*ci + ic) * kh) * kw
			for ih := 0; ih < h; ih++ {
				irow := input.Data[(ic*h+ih)*w : (ic*h+ih)*w+w]
				for r := 0; r < kh; r++ {
					oh := ih*stride - pad + r
					if oh < 0 || oh >= ho {
						continue
					}
					orow := plane[oh*wo : (oh+1)*wo]
					for c := 0; c < kw; c++ {
						wv := weight.Data[kbase+r*kw+c]
						if wv == 0 {
							continue
						}
						owBase := -pad + c
						for iw, v := range irow {
							ow := iw*stride + owBase
							if ow < 0 || ow >= wo {
								continue
							}
							orow[ow] += v * wv
						}
					}
				}
			}
		}
	}
}

// Upsample2D performs nearest-neighbor upsampling by an integer scale:
// [C,H,W] -> [C,H*scale,W*scale].
func Upsample2D(input *Tensor, scale int) *Tensor {
	out := New(input.Dim(0), input.Dim(1)*scale, input.Dim(2)*scale)
	Upsample2DInto(input, scale, out)
	return out
}

// Upsample2DInto is the allocation-free form of Upsample2D: it writes the
// nearest-neighbor expansion into a caller-provided [C, H*scale, W*scale]
// tensor whose contents may be garbage (every element is overwritten), so
// pooled arena buffers flow through the inference path without allocation.
func Upsample2DInto(input *Tensor, scale int, out *Tensor) {
	c, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	if scale < 1 {
		panic("tensor: Upsample2D scale must be >= 1")
	}
	if out.Dim(0) != c || out.Dim(1) != h*scale || out.Dim(2) != w*scale {
		panic(fmt.Sprintf("tensor: Upsample2D output [%d,%d,%d] does not match input [%d,%d,%d] x%d",
			out.Dim(0), out.Dim(1), out.Dim(2), c, h, w, scale))
	}
	ho, wo := h*scale, w*scale
	for ic := 0; ic < c; ic++ {
		for ih := 0; ih < h; ih++ {
			src := input.Data[(ic*h+ih)*w : (ic*h+ih)*w+w]
			// Expand one source row into the first destination row of the
			// band, then replicate it for the remaining scale-1 rows.
			first := out.Data[(ic*ho+ih*scale)*wo : (ic*ho+ih*scale)*wo+wo]
			for iw, v := range src {
				dst := first[iw*scale : (iw+1)*scale]
				for j := range dst {
					dst[j] = v
				}
			}
			for r := 1; r < scale; r++ {
				row := out.Data[(ic*ho+ih*scale+r)*wo : (ic*ho+ih*scale+r)*wo+wo]
				copy(row, first)
			}
		}
	}
}

// validPool panics unless the pooling window evenly tiles the input: the
// kernels below implement stride==kernel pooling only, and an indivisible
// H or W would silently truncate output rows (the historical behavior, a
// real bug once non-2^n image-to-image geometries appeared).
func validPool(h, w, k int) {
	if k < 1 {
		panic(fmt.Sprintf("tensor: MaxPool2D window %d must be >= 1", k))
	}
	if h%k != 0 || w%k != 0 {
		panic(fmt.Sprintf("tensor: MaxPool2D window %d does not evenly divide input %dx%d (stride==kernel pooling requires divisibility; pad the input or choose a dividing window)", k, h, w))
	}
}

// MaxPool2D performs max pooling with a square window and equal stride.
// Input [C,H,W] -> output [C,H/k,W/k]. H and W must be divisible by k — the
// kernel is stride==kernel only and panics otherwise rather than silently
// truncating. It also returns the argmax flat indices (into the input plane)
// for backprop.
func MaxPool2D(input *Tensor, k int) (*Tensor, []int) {
	c, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	validPool(h, w, k)
	ho, wo := h/k, w/k
	out := New(c, ho, wo)
	arg := make([]int, c*ho*wo)
	for ic := 0; ic < c; ic++ {
		for oh := 0; oh < ho; oh++ {
			for ow := 0; ow < wo; ow++ {
				best := float32(-3.4e38)
				bi := 0
				for r := 0; r < k; r++ {
					for cc := 0; cc < k; cc++ {
						idx := (ic*h+oh*k+r)*w + ow*k + cc
						if v := input.Data[idx]; v > best {
							best, bi = v, idx
						}
					}
				}
				o := (ic*ho+oh)*wo + ow
				out.Data[o] = best
				arg[o] = bi
			}
		}
	}
	return out, arg
}

// MaxPool2DInto is the inference-path variant of MaxPool2D: it writes into a
// caller-provided [C, H/k, W/k] tensor (which may hold garbage — every
// element is overwritten) and skips the argmax bookkeeping training needs, so
// pooled scratch buffers flow through without allocation. Like MaxPool2D it
// panics when k does not evenly divide H and W. A window's maximum is taken
// with the builtin max, which compiles without a branch: a NaN anywhere in
// the window is the window's result. k = 2, the only window the served nets
// use, walks row pairs as slices instead of indexing element by element.
func MaxPool2DInto(input *Tensor, k int, out *Tensor) {
	MaxPool2DRange(input, k, out, 0, input.Dim(0))
}

// MaxPool2DRange is MaxPool2DInto over channels [c0, c1) only, so a caller
// can split one pool across workers.
func MaxPool2DRange(input *Tensor, k int, out *Tensor, c0, c1 int) {
	h, w := input.Dim(1), input.Dim(2)
	validPool(h, w, k)
	ho, wo := h/k, w/k
	if k == 2 {
		for r := c0 * ho; r < c1*ho; r++ { // h = 2·ho: output row r pools input rows 2r, 2r+1
			top, bot := input.Data[2*r*w:(2*r+1)*w], input.Data[(2*r+1)*w:(2*r+2)*w]
			orow := out.Data[r*wo : (r+1)*wo]
			for j := range orow {
				orow[j] = max(top[2*j], top[2*j+1], bot[2*j], bot[2*j+1])
			}
		}
		return
	}
	maxPoolWindows(input, k, out, c0, c1)
}

// maxPoolWindows is MaxPool2DRange's general loop, for any window.
func maxPoolWindows(input *Tensor, k int, out *Tensor, c0, c1 int) {
	h, w := input.Dim(1), input.Dim(2)
	ho, wo := h/k, w/k
	for ic := c0; ic < c1; ic++ {
		for oh := 0; oh < ho; oh++ {
			for ow := 0; ow < wo; ow++ {
				best := input.Data[(ic*h+oh*k)*w+ow*k]
				for r := 0; r < k; r++ {
					for cc := 0; cc < k; cc++ {
						best = max(best, input.Data[(ic*h+oh*k+r)*w+ow*k+cc])
					}
				}
				out.Data[(ic*ho+oh)*wo+ow] = best
			}
		}
	}
}

// AvgPool2DGlobal averages each channel plane to a single value:
// [C,H,W] -> [C,1,1].
func AvgPool2DGlobal(input *Tensor) *Tensor {
	out := New(input.Dim(0), 1, 1)
	AvgPool2DGlobalInto(input, out)
	return out
}

// AvgPool2DGlobalInto is the allocation-free form of AvgPool2DGlobal: it
// writes the per-channel means into a caller-provided [C,1,1] tensor whose
// contents may be garbage (every element is overwritten), so pooled arena
// buffers flow through the inference path without allocation.
func AvgPool2DGlobalInto(input, out *Tensor) {
	c, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	inv := 1 / float32(h*w)
	for ic := 0; ic < c; ic++ {
		var s float32
		plane := input.Data[ic*h*w : (ic+1)*h*w]
		for _, v := range plane {
			s += v
		}
		out.Data[ic] = s * inv
	}
}

// AddInto writes the elementwise sum a+b into out (which may hold garbage;
// every element is overwritten). The three tensors must have equal length;
// out may alias a or b.
func AddInto(a, b, out *Tensor) {
	bd, od := b.Data, out.Data
	for i, v := range a.Data {
		od[i] = v + bd[i]
	}
}

// FCIntoRange computes out[o] = bias[o] + Σ_i w[o,i]·x[i] for output features
// o in [from, to), with an optional fused ReLU epilogue — the ranged form the
// worker pool parallelizes a fully-connected layer with. w is [Out, In]; x
// and out are flat feature vectors ([C,1,1] views work). out needs no
// pre-initialization. bias may be nil. The dot product runs as four
// independent partial sums (i mod 4, a ragged tail joining the first),
// combined as (a0+a1)+(a2+a3) before the bias: one chain would wait out the
// add latency on every element.
func FCIntoRange(out, w, x *Tensor, bias []float32, relu bool, from, to int) {
	in := w.Dim(1)
	xd := x.Data[:in]
	for o := from; o < to; o++ {
		row := w.Data[o*in : (o+1)*in]
		var a0, a1, a2, a3 float32
		i := 0
		for ; i+4 <= len(row); i += 4 {
			r, v := row[i:i+4:i+4], xd[i:i+4:i+4]
			a0 += r[0] * v[0]
			a1 += r[1] * v[1]
			a2 += r[2] * v[2]
			a3 += r[3] * v[3]
		}
		for ; i < len(row); i++ {
			a0 += row[i] * xd[i]
		}
		acc := (a0 + a1) + (a2 + a3)
		if bias != nil {
			acc += bias[o]
		}
		if relu && acc < 0 {
			acc = 0
		}
		out.Data[o] = acc
	}
}

// SoftmaxInto is the allocation-free form of Softmax: it writes the
// numerically-stabilized softmax of the flat logits in `in` into out (equal
// length, may alias).
func SoftmaxInto(in, out *Tensor) {
	maxv := in.Data[0]
	for _, v := range in.Data {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range in.Data {
		e := exp32(v - maxv)
		out.Data[i] = e
		sum += float64(e)
	}
	inv := float32(1 / sum)
	for i := range out.Data {
		out.Data[i] *= inv
	}
}

// ReLU applies max(0,x) in place and returns its argument.
func ReLU(t *Tensor) *Tensor {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
	return t
}

// Softmax returns softmax over a 1-D logits tensor, numerically stabilized.
func Softmax(logits *Tensor) *Tensor {
	out := New(logits.shape...)
	SoftmaxInto(logits, out)
	return out
}

func exp32(x float32) float32 {
	// Clamp to avoid overflow in float64 exp, then convert.
	if x < -40 {
		return 0
	}
	return float32(expFloat(float64(x)))
}
