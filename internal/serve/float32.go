package serve

// The /infer tensors' float32 codec. Both directions are exact: the writer
// produces strconv's shortest digits, and the reader produces
// strconv.ParseFloat(s, 32)'s bits. Each handles the common case itself and
// hands the rest to strconv.
//
// The writer is Schubfach (R. Giulietti, "The Schubfach way to render
// doubles", 2020, in its float32 form): for a normal float32 v = c·2^q it
// picks k from q so that v/10^k keeps c's size, computes 4·v/10^k and the
// two rounding-interval bounds with one 64-bit multiply each, rounded to
// odd, and reads the shortest decimal in the interval off those three,
// ties to the nearer, then to even. Zero is written directly; subnormals,
// NaN and ±Inf go to strconv.
//
// The reader is Clinger's fast path: a significand of at most 15 digits is
// an exact float64, and so is 10^|e| for |e| ≤ 22, so one float64 multiply
// or divide is the correctly rounded float64. Rounding that to float32 again
// is correct unless it lands exactly on a float32 midpoint; such a number,
// and any other, goes to strconv. Inside those bounds a nonzero value lies
// in [1e-22, 1e37], where every float32 is normal.

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

const (
	// The decimal exponents k that shortest32 takes over the normal
	// float32s, c·2^q for q from -149 to 104.
	minK, maxK = -45, 31
	// digitPairs holds "00" to "99"; zeros pads the 'f' form.
	digitPairs = "00010203040506070809" +
		"10111213141516171819" +
		"20212223242526272829" +
		"30313233343536373839" +
		"40414243444546474849" +
		"50515253545556575859" +
		"60616263646566676869" +
		"70717273747576777879" +
		"80818283848586878889" +
		"90919293949596979899"
	zeros = "000000000000000000000"
)

// pow10g[k-minK] is g = g1+1, where 10^-k = β·2^-r with 2^125 ≤ β < 2^126
// and g1 = (⌊β⌋+1) >> 63: 10^-k scaled to 63 bits and rounded up.
var pow10g = func() (g [maxK - minK + 1]uint64) {
	for k := minK; k <= maxK; k++ {
		var beta big.Int
		if k <= 0 {
			p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(-k)), nil)
			if r := 126 - p.BitLen(); r >= 0 {
				beta.Lsh(p, uint(r))
			} else {
				beta.Rsh(p, uint(-r))
			}
		} else {
			p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
			beta.Quo(new(big.Int).Lsh(big.NewInt(1), uint(125+p.BitLen())), p)
		}
		beta.Add(&beta, big.NewInt(1))
		g[k-minK] = beta.Rsh(&beta, 63).Uint64() + 1
	}
	return g
}()

// flog10pow2 is ⌊q·log10 2⌋, flog10threeQuartersPow2 ⌊log10(¾·2^q)⌋ and
// flog2pow10 ⌊q·log2 10⌋, exact over the exponents a float32 has.
func flog10pow2(q int) int              { return int(int64(q) * 661971961083 >> 41) }
func flog10threeQuartersPow2(q int) int { return int((int64(q)*661971961083 - 274743187321) >> 41) }
func flog2pow10(q int) int              { return int(int64(q) * 913124641741 >> 38) }

// rop is the high bits of g·cp, rounded to odd: what is left of the
// product's low 32 bits is one sticky bit.
func rop(g, cp uint64) uint64 {
	hi, _ := bits.Mul64(g, cp)
	return hi>>31 | (hi&math.MaxUint32+math.MaxUint32)>>32
}

// shortest32 returns the shortest decimal d·10^k that rounds to the normal
// float32 c·2^q, the nearest one to it if several are, and of two equally
// near the one with an even d. irregular marks c = 2^23 above the smallest
// exponent, whose lower neighbour is half as far as its upper one.
func shortest32(q int, c uint64, irregular bool) (d uint64, k int) {
	out := c & 1 // an odd c's interval excludes its bounds
	cb := c << 2
	cbr, cbl := cb+2, cb-2
	k = flog10pow2(q)
	if irregular {
		cbl, k = cb-1, flog10threeQuartersPow2(q)
	}
	h := q + flog2pow10(-k) + 33
	g := pow10g[k-minK]
	vb, vbl, vbr := rop(g, cb<<h), rop(g, cbl<<h), rop(g, cbr<<h)

	s := vb >> 2
	if s >= 100 {
		// One digit fewer: the multiples of ten around s.
		sp10 := s / 10 * 10
		tp10 := sp10 + 10
		upin, wpin := vbl+out <= sp10<<2, tp10<<2+out <= vbr
		if upin != wpin {
			if upin {
				return sp10, k
			}
			return tp10, k
		}
	}
	t := s + 1
	uin, win := vbl+out <= s<<2, t<<2+out <= vbr
	if uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if cmp := int64(vb) - int64((s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return s, k
	}
	return t, k
}

// appendFloat32 appends v as encoding/json writes a float32: appendFloat's
// bytes for float64(v) at bitSize 32.
func appendFloat32(b []byte, v float32) ([]byte, error) {
	vb := math.Float32bits(v)
	bq := vb >> 23 & 0xff
	if bq == 0 || bq == 0xff {
		if vb<<1 != 0 { // a subnormal, NaN or ±Inf
			return appendFloat(b, float64(v), 32)
		}
		if vb != 0 {
			b = append(b, '-')
		}
		return append(b, '0'), nil
	}
	if vb>>31 != 0 {
		b = append(b, '-')
	}
	c := uint64(vb&(1<<23-1) | 1<<23)
	d, k := shortest32(int(bq)-150, c, c == 1<<23 && bq > 1)

	// d < 2^32: c < 2^24, and k leaves v/10^k under 100·c.
	var buf [10]byte
	i, x := len(buf), uint32(d)
	for ; x >= 100; x /= 100 {
		p := x % 100 * 2
		i -= 2
		buf[i], buf[i+1] = digitPairs[p], digitPairs[p+1]
	}
	if x >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*x], digitPairs[2*x+1]
	} else {
		i--
		buf[i] = byte('0' + x)
	}
	digits := buf[i:]
	for digits[len(digits)-1] == '0' {
		digits = digits[:len(digits)-1]
		k++
	}
	n := len(digits)
	dp := n + k // v = 0.digits × 10^dp

	if abs := math.Float32frombits(vb &^ (1 << 31)); abs < 1e-6 || abs >= 1e21 {
		b = append(b, digits[0])
		if n > 1 {
			b = append(append(b, '.'), digits[1:]...)
		}
		e := dp - 1
		if e < 0 {
			b, e = append(b, 'e', '-'), -e
		} else {
			b = append(b, 'e', '+')
		}
		if e < 10 {
			return append(b, byte('0'+e)), nil
		}
		return append(b, digitPairs[2*e], digitPairs[2*e+1]), nil
	}
	switch {
	case dp <= 0:
		b = append(append(b, "0."...), zeros[:-dp]...)
		return append(b, digits...), nil
	case dp < n:
		b = append(append(b, digits[:dp]...), '.')
		return append(b, digits[dp:]...), nil
	default:
		return append(append(b, digits...), zeros[:dp-n]...), nil
	}
}

// A number is what scanNumber read of a JSON number: digits significant
// digits, and the value mant·10^exp, negated when neg, while digits ≤ 19.
// An exponent too long to add leaves exp as it was and digits at 16.
type number struct {
	mant   uint64
	exp    int
	digits int
	neg    bool
}

// addDigits appends digits to n's significand.
func (n *number) addDigits(digits []byte) {
	mant, count := n.mant, n.digits
	for _, c := range digits {
		if count < 19 {
			mant = mant*10 + uint64(c-'0')
		}
		if mant != 0 { // a leading zero only places the point
			count++
		}
	}
	n.mant, n.digits = mant, count
}

// addExponent adds the exponent e, JSON grammar without its 'e', to n's. An
// exponent past 9999 takes n off the fast path instead: n.exp already holds
// minus the fraction's length, which only the body's size bounds, so no cap
// on e would keep the sum exact.
func (n *number) addExponent(e []byte) {
	neg := e[0] == '-'
	if e[0] == '-' || e[0] == '+' {
		e = e[1:]
	}
	x := 0
	for _, c := range e {
		if x = x*10 + int(c-'0'); x > 9999 {
			n.digits = 16 // past fastFloat32's 15: strconv reads the span
			return
		}
	}
	if neg {
		x = -x
	}
	n.exp += x
}

// pow10f64 holds the powers of ten a float64 holds exactly.
var pow10f64 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// fastFloat32 is n's value rounded to float32 when Clinger's fast path
// reaches it exactly, or ok false: strconv.ParseFloat(…, 32) on n's span then
// decides.
func (n number) fastFloat32() (v float32, ok bool) {
	if n.digits > 15 || n.exp < -22 || n.exp > 22 {
		return 0, false
	}
	f := float64(n.mant)
	if n.exp >= 0 {
		f *= pow10f64[n.exp]
	} else {
		f /= pow10f64[-n.exp]
	}
	// The 29 bits a float32 drops are exactly half an ulp: a tie that
	// rounding to float64 may have made.
	if math.Float64bits(f)&(1<<29-1) == 1<<28 {
		return 0, false
	}
	if v = float32(f); n.neg {
		v = -v
	}
	return v, true
}

// parseFloat32 is strconv.ParseFloat(string(span), 32) for the number n that
// scanNumber read from span. The span is JSON number grammar, so it can only
// fail on range.
func parseFloat32(span []byte, n number) (float32, error) {
	if v, ok := n.fastFloat32(); ok {
		return v, nil
	}
	// The string conversion stays on the stack for spans up to 32 bytes.
	f, err := strconv.ParseFloat(string(span), 32)
	return float32(f), err
}
