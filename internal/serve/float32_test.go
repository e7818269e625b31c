package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// readFloat32 reads s as scanInput reads a tensor element: s must be one
// JSON number and nothing else.
func readFloat32(s string) (float32, error) {
	var n number
	if end := scanNumber([]byte(s), 0, &n); end != len(s) {
		return 0, fmt.Errorf("%q is not one JSON number", s)
	}
	return parseFloat32([]byte(s), n)
}

// checkFloat32 holds the writer to strconv on v's bits, and the reader, on
// what the writer wrote, to strconv and to v's bits.
func checkFloat32(t testing.TB, vb uint32) {
	t.Helper()
	v := math.Float32frombits(vb)
	want, wantErr := appendFloat(nil, float64(v), 32) // encoding/json's form, through strconv
	got, err := appendFloat32(nil, v)
	if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("appendFloat32(%#08x) = %q, %v; strconv writes %q, %v", vb, got, err, want, wantErr)
	}
	if err != nil {
		return
	}
	checkReader(t, string(got))
	if r, _ := readFloat32(string(got)); math.Float32bits(r) != vb {
		t.Fatalf("%#08x wrote %q, which reads back as %#08x", vb, got, math.Float32bits(r))
	}
}

// checkReader holds the reader to strconv.ParseFloat(s, 32), bit for bit and
// on the error, for a string s of JSON number grammar.
func checkReader(t testing.TB, s string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(s, 32)
	got, err := readFloat32(s)
	if (err == nil) != (wantErr == nil) || err == nil && math.Float32bits(got) != math.Float32bits(float32(want)) {
		t.Fatalf("reading %q gives %g (%#08x), %v; strconv gives %g (%#08x), %v",
			s, got, math.Float32bits(got), err, want, math.Float32bits(float32(want)), wantErr)
	}
}

// float32Edges: every exponent's smallest and largest significand, each
// power of ten and its neighbours, both sides of encoding/json's 1e-6 and
// 1e21 cutoffs, ±0, subnormals and the largest float32 — each with both
// signs.
func float32Edges() []uint32 {
	var vs []uint32
	for e := uint32(0); e <= 0xff; e++ {
		vs = append(vs, e<<23, e<<23|1, e<<23|0x7fffff, e<<23|0x7ffffe, e<<23|0x400000)
	}
	near := func(f float32) {
		vs = append(vs, math.Float32bits(math.Nextafter32(f, 0)), math.Float32bits(f),
			math.Float32bits(math.Nextafter32(f, math.MaxFloat32)))
	}
	for k := -45; k <= 38; k++ {
		near(float32(math.Pow10(k)))
	}
	near(1e-6)
	near(1e21)
	near(math.MaxFloat32)
	near(math.SmallestNonzeroFloat32)
	near(16777216)
	for i := range vs {
		vs = append(vs, vs[i]|1<<31)
	}
	return vs
}

// TestFloat32WriterMatchesStrconv: the writer writes strconv's bytes, and the
// reader reads them back to the same bits, at the edges and over a strided
// sweep of two million bit patterns.
func TestFloat32WriterMatchesStrconv(t *testing.T) {
	for _, vb := range float32Edges() {
		checkFloat32(t, vb)
	}
	const stride = 2039 // prime: the sweep visits every residue of the significand
	for vb := uint64(0); vb < 1<<32; vb += stride {
		checkFloat32(t, uint32(vb))
	}
}

// TestFloat32ReaderFallback: strings the fast path must hand to strconv, and
// must then read as strconv does.
func TestFloat32ReaderFallback(t *testing.T) {
	for _, s := range []string{
		// Float32 midpoints: the float64 is exact and a tie.
		"16777217", "-16777217", "16777219", "33554434", "8388608.5", "4194304.25", "0.5000000298023223876953125",
		"3.4028235677973366e38",
		// Just off a midpoint, past 15 digits.
		"16777217.000000001", "16777216.999999999",
		// More than 15 significant digits.
		"1234567890123456", "0.30000001192092896", "1.0000000000000000", "100000000000000000000000",
		"0.1000000000000000055511151231257827",
		// Exponents past ±22, and of five digits or more.
		"1e-45", "1e-46", "7e-46", "1.4e-45", "1e-38", "1.1754943e-38", "1e23", "3.4028235e38",
		"3.4028236e38", "1e39", "-1e39", "1e10000", "1e-10000", "0e99999", "-0e-99999", "123e-99999",
		"0.000000000000000000000001",
		// A fraction long enough to cancel a long exponent; see TestLongFractionMeetsLongExponent.
		longFraction + "1e1000010", longFraction + "1e10000000",
	} {
		var n number
		if end := scanNumber([]byte(s), 0, &n); end != len(s) {
			t.Fatalf("%q is not one JSON number", s)
		}
		if v, ok := n.fastFloat32(); ok {
			t.Errorf("the fast path read %q as %g: it must go to strconv", s, v)
		}
		checkReader(t, s)
	}
	// And numbers the fast path keeps, some at its edges.
	for _, s := range []string{
		"0", "-0", "0.0", "0e5", "-0.000", "1", "-1", "0.1", "1e22", "1e-22", "999999999999999e22",
		"123456789012345", "0.000123456789012345", "3e-7", "1.5E+2", "16777216", "16777218", "1.17549435e-38e0",
		"0." + strings.Repeat("0", 9990) + "1e9995", "1e" + strings.Repeat("0", 40) + "9",
	} {
		var n number
		if end := scanNumber([]byte(s), 0, &n); end != len(s) {
			continue // the last one is not JSON; scanNumber stops at its second e
		}
		if _, ok := n.fastFloat32(); !ok {
			t.Errorf("%q left the fast path", s)
		}
		checkReader(t, s)
	}
}

// longFraction is a fraction's leading zeros, a million and four of them.
var longFraction = "0." + strings.Repeat("0", 1000004)

// TestLongFractionMeetsLongExponent: a body far below MaxRequestBytes can
// carry a fraction as long as an exponent is large. The first span is 1e5;
// in the second strconv stops adding the exponent's digits at 10000 and
// reads 0. ParseRequest reads both as json.Unmarshal does. The bodies are a
// megabyte each, too large for wireSeeds, which also seed the fuzzer.
func TestLongFractionMeetsLongExponent(t *testing.T) {
	for _, exp := range []string{"1e1000010", "1e10000000", "1e-1000010"} {
		checkWire(t, []byte(`{"network":"a","input":[2,`+longFraction+exp+`]}`))
	}
}

// TestOutOfRangeInputIsRejected: 3.4028236e38 rounds past the largest
// float32, so the body goes to json.Unmarshal, which rejects it.
func TestOutOfRangeInputIsRejected(t *testing.T) {
	for _, body := range []string{
		`{"network":"a","input":[3.4028236e38]}`,
		`{"network":"a","input":[1,-3.4028236e38]}`,
	} {
		var req Request
		if scanRequest([]byte(body), &req, true) {
			t.Errorf("scanRequest took %s", body)
		}
		if _, err := ParseRequest([]byte(body)); err == nil {
			t.Errorf("ParseRequest accepted %s", body)
		}
	}
}

// TestHostileNumberSpans: spans that are not a float32 the tensor can hold.
// Each is an error from ParseRequest, as from json.Unmarshal, and none
// panics the scanner.
func TestHostileNumberSpans(t *testing.T) {
	for _, span := range []string{
		"-", "--1", "+1", ".5", "-.5", "1.", "1.e5", "1e", "1e+", "1e-", "1E+-1", "00", "-01", "0x10",
		"1_000", "NaN", "Infinity", "-Inf", "1e99999999999999999999999", "-1e400",
		strings.Repeat("9", 1000), "1" + strings.Repeat("0", 39), "0." + strings.Repeat("0", 1000) + "1e1100",
		"1.5\x00", "1 2", "\"1\"", "1e5.5", "١", "1\u00a0",
	} {
		body := `{"network":"a","input":[` + span + `]}`
		var want wireMirror
		if json.Unmarshal([]byte(body), &want) == nil {
			t.Fatalf("json.Unmarshal accepted %q: not a hostile span", span)
		}
		if _, err := ParseRequest([]byte(body)); err == nil {
			t.Errorf("ParseRequest accepted the span %q", span)
		}
		readFloat32(span) // a span that is not a number ends early; it must not panic
	}
}

// FuzzFloat32Codec: from random bits, the writer writes strconv's bytes and
// the reader reads them back to the same bits; from random strings of JSON
// number grammar, and from other decimal forms of those bits, the reader
// gives strconv.ParseFloat(…, 32)'s bits.
func FuzzFloat32Codec(f *testing.F) {
	for _, vb := range float32Edges()[:40] {
		f.Add(vb, "")
	}
	for _, s := range []string{"16777217", "0.30000001192092896", "1e-45", "3.4028236e38", "-0", "12.5e-3"} {
		f.Add(uint32(0x3f800000), s)
	}
	f.Fuzz(func(t *testing.T, vb uint32, s string) {
		checkFloat32(t, vb)
		v := float64(math.Float32frombits(vb))
		forms := []string{s,
			strconv.FormatFloat(v, 'g', 17, 64), strconv.FormatFloat(v, 'e', int(vb%20), 64),
			strconv.FormatFloat(v, 'f', -1, 64), strconv.FormatFloat(v, 'f', int(vb%30), 32)}
		for _, form := range forms {
			if scanNumber([]byte(form), 0, nil) == len(form) {
				checkReader(t, form)
			}
		}
	})
}

func BenchmarkFloat32Codec(b *testing.B) {
	vs := srOutput(4096, 0)
	var buf []byte
	b.Run("appendFloat32", func(b *testing.B) {
		for range b.N {
			buf = buf[:0]
			for _, v := range vs {
				buf, _ = appendFloat32(append(buf, ','), v)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/float")
	})
	b.Run("strconv", func(b *testing.B) {
		for range b.N {
			buf = buf[:0]
			for _, v := range vs {
				buf, _ = appendFloat(append(buf, ','), float64(v), 32)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/float")
	})
}
