// Package baseline implements the measured host kernels PatDNN is compared
// against: an optimized dense convolution engine with Winograd F(2×2,3×3)
// (used by all dense runs in the paper) and a CSR-based sparse engine (the
// paper's "conventional sparse" strawman that fails to beat dense). The
// modelled TFLite/TVM/MNN frameworks live under internal/bench/internal.
package baseline

import (
	"patdnn/internal/tensor"
)

// WinogradConv3x3 computes a stride-1, pad-1 3×3 convolution with the
// Winograd F(2×2,3×3) algorithm: each 4×4 input tile produces a 2×2 output
// tile with 16 multiplies instead of 36 (2.25× MAC reduction).
//
//	input:  [Ci, H, W]
//	weight: [Co, Ci, 3, 3]
//	bias:   [Co] or nil
func WinogradConv3x3(input, weight, bias *tensor.Tensor) *tensor.Tensor {
	ci, h, w := input.Dim(0), input.Dim(1), input.Dim(2)
	co := weight.Dim(0)
	outH, outW := h, w // stride 1, pad 1
	out := tensor.New(co, outH, outW)

	// Transformed weights U = G·g·Gᵀ per (oc, ic), 4×4 each.
	u := make([][16]float32, co*ci)
	for oc := 0; oc < co; oc++ {
		for ic := 0; ic < ci; ic++ {
			g := weight.Data[((oc*ci)+ic)*9 : ((oc*ci)+ic)*9+9]
			u[oc*ci+ic] = transformWeight(g)
		}
	}

	tilesH := (outH + 1) / 2
	tilesW := (outW + 1) / 2
	var d [16]float32
	for oc := 0; oc < co; oc++ {
		var b float32
		if bias != nil {
			b = bias.Data[oc]
		}
		oplane := out.Data[oc*outH*outW:]
		for th := 0; th < tilesH; th++ {
			for tw := 0; tw < tilesW; tw++ {
				var m [16]float32
				for ic := 0; ic < ci; ic++ {
					// Gather the 4×4 input tile with pad-1 borders.
					iplane := input.Data[ic*h*w:]
					for r := 0; r < 4; r++ {
						ih := th*2 + r - 1
						for c := 0; c < 4; c++ {
							iw := tw*2 + c - 1
							if ih >= 0 && ih < h && iw >= 0 && iw < w {
								d[r*4+c] = iplane[ih*w+iw]
							} else {
								d[r*4+c] = 0
							}
						}
					}
					v := transformInput(d)
					uu := u[oc*ci+ic]
					for i := 0; i < 16; i++ {
						m[i] += uu[i] * v[i]
					}
				}
				y := transformOutput(m)
				for r := 0; r < 2; r++ {
					oh := th*2 + r
					if oh >= outH {
						continue
					}
					for c := 0; c < 2; c++ {
						ow := tw*2 + c
						if ow >= outW {
							continue
						}
						oplane[oh*outW+ow] = y[r*2+c] + b
					}
				}
			}
		}
	}
	return out
}

// transformWeight computes G·g·Gᵀ with G = [[1,0,0],[.5,.5,.5],[.5,-.5,.5],[0,0,1]].
func transformWeight(g []float32) [16]float32 {
	var t [12]float32 // G·g (4×3)
	for c := 0; c < 3; c++ {
		g0, g1, g2 := g[c], g[3+c], g[6+c]
		t[c] = g0
		t[3+c] = 0.5 * (g0 + g1 + g2)
		t[6+c] = 0.5 * (g0 - g1 + g2)
		t[9+c] = g2
	}
	var u [16]float32 // (G·g)·Gᵀ (4×4)
	for r := 0; r < 4; r++ {
		t0, t1, t2 := t[r*3], t[r*3+1], t[r*3+2]
		u[r*4] = t0
		u[r*4+1] = 0.5 * (t0 + t1 + t2)
		u[r*4+2] = 0.5 * (t0 - t1 + t2)
		u[r*4+3] = t2
	}
	return u
}

// transformInput computes Bᵀ·d·B with
// Bᵀ = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]].
func transformInput(d [16]float32) [16]float32 {
	var t [16]float32 // Bᵀ·d
	for c := 0; c < 4; c++ {
		d0, d1, d2, d3 := d[c], d[4+c], d[8+c], d[12+c]
		t[c] = d0 - d2
		t[4+c] = d1 + d2
		t[8+c] = d2 - d1
		t[12+c] = d1 - d3
	}
	var v [16]float32 // (Bᵀ·d)·B
	for r := 0; r < 4; r++ {
		t0, t1, t2, t3 := t[r*4], t[r*4+1], t[r*4+2], t[r*4+3]
		v[r*4] = t0 - t2
		v[r*4+1] = t1 + t2
		v[r*4+2] = t2 - t1
		v[r*4+3] = t1 - t3
	}
	return v
}

// transformOutput computes Aᵀ·m·A with Aᵀ = [[1,1,1,0],[0,1,-1,-1]].
func transformOutput(m [16]float32) [4]float32 {
	var t [8]float32 // Aᵀ·m (2×4)
	for c := 0; c < 4; c++ {
		m0, m1, m2, m3 := m[c], m[4+c], m[8+c], m[12+c]
		t[c] = m0 + m1 + m2
		t[4+c] = m1 - m2 - m3
	}
	var y [4]float32 // (Aᵀ·m)·A (2×2)
	for r := 0; r < 2; r++ {
		t0, t1, t2, t3 := t[r*4], t[r*4+1], t[r*4+2], t[r*4+3]
		y[r*2] = t0 + t1 + t2
		y[r*2+1] = t1 - t2 - t3
	}
	return y
}
