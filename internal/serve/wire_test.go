package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"patdnn/internal/runtime"
)

// wireMirror is Request as encoding/json sees it, declared apart from Request
// so the oracle stays what it is even if Request ever grows an UnmarshalJSON.
type wireMirror struct {
	Network   string    `json:"network"`
	Dataset   string    `json:"dataset"`
	Input     []float32 `json:"input,omitempty"`
	Class     string    `json:"class,omitempty"`
	TimeoutMs float64   `json:"timeout_ms,omitempty"`
}

// wireSeeds covers the fast shape, each way out of it, and what
// strconv.ParseFloat takes but the JSON grammar does not.
var wireSeeds = []string{
	`{"network":"srgen","dataset":"","input":[0.5,-1.25,3e-7,1E+2,-0,0,12345678]}`,
	`{"network":"VGG","dataset":"cifar10"}`,
	`{"network":"vgg@v2","dataset":"cifar10","level":"packed","class":"batch","timeout_ms":12.5,"input":[1]}`,
	// "level" left the request: like any unknown key it is ignored, wherever
	// it sits and however often.
	`{"level":"noopt","network":"VGG","dataset":"cifar10"}`,
	`{"network":"VGG","dataset":"cifar10","input":[1,2],"level":"noopt"}`,
	`{"level":"noopt","network":"VGG","level":"tuned","dataset":"cifar10","level":7}`,
	`{}`,
	` { "network" : "a" , "dataset" : "b" , "input" : [ 1 , 2.5 , -3e2 ] , "timeout_ms" : 5 } ` + "\n",
	"\t{\r\n\"network\"\t:\r\"a\",\n\"input\":[\n1\t,\r2\n]\n}\t",
	`{"network":"a","input":[]}`,
	`{"network":"a","input":[ ]}`,
	`{"network":"a","input":null}`,
	`{"network":null}`,
	`{"Network":"a","DATASET":"b"}`,
	`{"network":"a","network":"b"}`,
	`{"input":[1],"input":[2,3]}`,
	`{"network":"a\u0062","dataset":"c\\d"}`,
	`{"network":"caf\u00e9"}`,
	"{\"network\":\"caf\xc3\xa9\"}",
	"{\"network\":\"bad\xffutf8\"}",
	"{\"network\":\"tab\there\"}",
	`{"network":"a","extra":1}`,
	`{"network":"a","input":[1,[2]]}`,
	`{"network":"a","input":{"x":1}}`,
	`{"network":"a","input":["1"]}`,
	`{"network":"a","input":[1,2`,
	`{"network":"a","input":[1,2]`,
	`{"network":"a","input":[1,,2]}`,
	`{"network":"a","input":[1,]}`,
	`{"network":"a","input":[,1]}`,
	`{"network":"a",}`,
	`{"network":"a"}{"network":"b"}`,
	`{"network":"a"} x`,
	`{"network":"a"}]`,
	`[{"network":"a"}]`,
	`"network"`,
	``,
	`{"network":"a","input":[+1]}`,
	`{"network":"a","input":[.5]}`,
	`{"network":"a","input":[1.]}`,
	`{"network":"a","input":[01]}`,
	`{"network":"a","input":[0x1p3]}`,
	`{"network":"a","input":[1_0]}`,
	`{"network":"a","input":[Inf]}`,
	`{"network":"a","input":[NaN]}`,
	`{"network":"a","input":[-]}`,
	`{"network":"a","input":[1e]}`,
	`{"network":"a","input":[1e+]}`,
	`{"network":"a","input":[1e39]}`,
	`{"network":"a","input":[-1e39,1]}`,
	`{"network":"a","input":[1e-60,3.4028235e38,3.4028236e38]}`,
	`{"network":"a","input":[0.000000000000000000000000000000000000000000001,100000000000000000000000000000000000000]}`,
	`{"network":"a","timeout_ms":1e400}`,
	`{"network":"a","timeout_ms":-0}`,
	`{"network":"a","timeout_ms":"5"}`,
	`{"network":"a","timeout_ms":01}`,
	`{"network":7}`,
	`{"network":"a","class":true}`,
}

// checkWire holds ParseRequest and PeekRequest to their oracle on one body.
func checkWire(t *testing.T, body []byte) {
	t.Helper()
	var want wireMirror
	wantErr := json.Unmarshal(body, &want)
	got, err := ParseRequest(body)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ParseRequest(%q) error %v, json.Unmarshal error %v", body, err, wantErr)
	}
	peek, peekErr := PeekRequest(body)
	if peek.Input != nil {
		t.Fatalf("PeekRequest(%q) returned an input", body)
	}
	if err != nil {
		return
	}
	if got.Network != want.Network || got.Dataset != want.Dataset ||
		got.Class != want.Class || math.Float64bits(got.TimeoutMs) != math.Float64bits(want.TimeoutMs) {
		t.Fatalf("ParseRequest(%q) = %+v, json.Unmarshal gives %+v", body, got, want)
	}
	if (got.Input == nil) != (want.Input == nil) || len(got.Input) != len(want.Input) {
		t.Fatalf("ParseRequest(%q): input nil=%v len=%d, json.Unmarshal nil=%v len=%d",
			body, got.Input == nil, len(got.Input), want.Input == nil, len(want.Input))
	}
	for i, v := range got.Input {
		if math.Float32bits(v) != math.Float32bits(want.Input[i]) {
			t.Fatalf("ParseRequest(%q): input[%d] = %g, json.Unmarshal gives %g", body, i, v, want.Input[i])
		}
	}
	if peekErr != nil {
		t.Fatalf("PeekRequest(%q) error %v on a body ParseRequest accepts", body, peekErr)
	}
	got.Input = nil
	if peek.Network != got.Network || peek.Dataset != got.Dataset ||
		peek.Class != got.Class || math.Float64bits(peek.TimeoutMs) != math.Float64bits(got.TimeoutMs) {
		t.Fatalf("PeekRequest(%q) = %+v, ParseRequest gives %+v", body, peek, got)
	}
}

func TestInferRequestParseSeeds(t *testing.T) {
	for _, seed := range wireSeeds {
		checkWire(t, []byte(seed))
	}
}

// FuzzInferRequestParse: for any body, ParseRequest and json.Unmarshal agree
// on accept/reject and on every field (input bit for bit), and the router's
// PeekRequest agrees with ParseRequest on the fields it reads.
func FuzzInferRequestParse(f *testing.F) {
	for _, seed := range wireSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkWire(t, body) })
}

// TestScanRequestTakesTheCommonShapes pins which bodies the scanner handles
// itself: were it to start declining what clients send, every request would
// silently pay for both parsers.
func TestScanRequestTakesTheCommonShapes(t *testing.T) {
	marshalled, err := json.Marshal(Request{Network: "srgen", Input: tinyInput(3), TimeoutMs: 250})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		body string
		fast bool
	}{
		{string(marshalled), true},
		{`{"network":"VGG","dataset":"cifar10"}`, true},
		{` { "network" : "a" , "input" : [ 1 , 2 ] } `, true},
		{`{"network":"a","input":[]}`, true},
		{`{}`, true},
		{`{"Network":"a"}`, false},
		{`{"network":"a","level":"noopt"}`, false},
		{`{"network":"a","network":"b"}`, false},
		{`{"network":"a\n"}`, false},
		{`{"network":"a","input":null}`, false},
		{`{"network":"a","input":[1e39]}`, false},
		{`{"network":"a"} `, true},
		{`{"network":"a"}x`, false},
	} {
		var req Request
		if got := scanRequest([]byte(tc.body), &req, true); got != tc.fast {
			t.Errorf("scanRequest(%q) = %v, want %v", tc.body, got, tc.fast)
		}
	}
}

// TestParseRequestAllocatesOnlyItsResult: the tensor and the strings, nothing
// per element.
func TestParseRequestAllocatesOnlyItsResult(t *testing.T) {
	in := make([]float32, 3072)
	for i := range in {
		in[i] = float32(math.Sin(float64(i))) * 3
	}
	body, err := json.Marshal(Request{Network: "srgen", Input: in})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"dataset":""`) {
		t.Fatalf("the marshalled request lost its empty dataset: %.80s", body)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ParseRequest(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 { // the network string and the tensor
		t.Fatalf("ParseRequest made %v allocations on a %d-float body, want at most 2", allocs, len(in))
	}
	if allocs := testing.AllocsPerRun(20, func() { PeekRequest(body) }); allocs > 1 {
		t.Fatalf("PeekRequest made %v allocations, want at most 1 (the network string)", allocs)
	}
}

// replyOracle is what the reply encoder must write: encoding/json's bytes.
func replyOracle(r *Response) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(r)
	return buf.Bytes(), err
}

// replyPools are the widths every reply is checked at: the caller alone,
// and parts split over two workers.
func replyPools(tb testing.TB) []*runtime.Pool {
	pools := []*runtime.Pool{runtime.NewPool(1), runtime.NewPool(2)}
	tb.Cleanup(func() { pools[1].Close() })
	return pools
}

// checkReply holds the reply encoder to encoding/json on one reply at each
// pool width: the same bytes, or the same error. The reply must fit the
// buffer maxReplyBytes sizes.
func checkReply(t *testing.T, pools []*runtime.Pool, r *Response) {
	t.Helper()
	want, wantErr := replyOracle(r)
	for _, pool := range pools {
		buf := make([]byte, 0, maxReplyBytes(r))
		got, err := newReplyEncoder().appendResponse(buf, pool, r)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("width %d: reply encoder error %v, encoding/json error %v", pool.Workers(), err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("width %d: reply encoder error %q, encoding/json error %q", pool.Workers(), err, wantErr)
			}
			continue
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("width %d: reply differs from encoding/json at byte %d of %d:\n got …%.80q\nwant …%.80q",
				pool.Workers(), i, len(want), got[i:], want[i:])
		}
		if cap(got) != cap(buf) {
			t.Fatalf("width %d: a %d-byte reply outgrew the %d bytes maxReplyBytes sized", pool.Workers(), len(got), cap(buf))
		}
	}
}

// srOutput is an SR-like output: n floats of about ten decimal digits.
func srOutput(n, seed int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.Sin(float64(i+seed))) * 3
	}
	return out
}

// replySeeds covers the classifier and SR replies, each output length at the
// part boundaries, float32 and float64 values at encoding/json's form
// cutoffs, and strings off the verbatim path.
func replySeeds() []*Response {
	f32 := func(bits uint32) float32 { return math.Float32frombits(bits) }
	extremes := []float32{
		0, f32(0x80000000), 1, -1, 0.1, -9.9999995e+20, math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, f32(0x007fffff), 1e-6, math.Nextafter32(1e-6, 0),
		math.Nextafter32(1e-6, 1), 1e21, math.Nextafter32(1e21, 0), 3e-7, 1.5e-7, 123456.79, 1e9, 16777217,
	}
	rs := []*Response{
		{},
		{Network: "VGG", Dataset: "cifar10", Level: "packed", Shape: [3]int{10, 1, 1},
			Output: []float32{0.1, 0.05, 0.3, 0.2, 0.05, 0.05, 0.1, 0.05, 0.05, 0.05}, ArgMax: 2, BatchSize: 1,
			QueueMs: 0.012, RunMs: 1.83},
		{Network: "srgen", Version: "v2", Shape: [3]int{3, 64, 64}, Output: srOutput(12288, 0), ArgMax: 7,
			BatchSize: 1, QueueMs: 3e-7, RunMs: 1e21},
		{Network: "x", Output: []float32{}, QueueMs: -0.0000015, RunMs: math.MaxFloat64},
		{Network: "x", Output: extremes, QueueMs: math.SmallestNonzeroFloat64, RunMs: 1e-6},
		{Network: "<b>&amp;</b>", Dataset: "\u2028\u2029", Version: "bad\xffutf8", Level: "ctl\x00\x01\n\t\x7f",
			Shape: [3]int{-1, math.MaxInt64, math.MinInt64}, ArgMax: -5},
		{Network: `quote"back\slash`, Dataset: "café", Version: " ", Level: "\xe2\x80"},
		{Network: "a<b", Dataset: "a>b", Version: "a&b", Level: `a\b`},
		{Network: `a"b`, Dataset: "a\x7fb", Version: "a\x1fb", Level: "~"},
	}
	for _, n := range []int{1, outputPart - 1, outputPart, outputPart + 1, 2*outputPart - 1, 2*outputPart + 1} {
		rs = append(rs, &Response{Network: "srgen", Shape: [3]int{n, 1, 1}, Output: srOutput(n, n)})
	}
	// The extremes at a part boundary and in the last part.
	long := srOutput(2*outputPart+len(extremes), 1)
	copy(long[outputPart-len(extremes)/2:], extremes)
	copy(long[len(long)-len(extremes):], extremes)
	return append(rs, &Response{Network: "srgen", Output: long})
}

func TestInferResponseEncodeSeeds(t *testing.T) {
	pools := replyPools(t)
	for _, r := range replySeeds() {
		checkReply(t, pools, r)
	}
}

// TestReplyEncodesEveryResponseField: every field of Response set, so a
// field added to the struct without a line in appendResponse shows up here
// as a difference from encoding/json.
func TestReplyEncodesEveryResponseField(t *testing.T) {
	var r Response
	v := reflect.ValueOf(&r).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		switch {
		case f.Kind() == reflect.String:
			f.SetString(v.Type().Field(i).Name)
		case f.Kind() == reflect.Int:
			f.SetInt(int64(i + 1))
		case f.Kind() == reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case f.Type() == reflect.TypeOf([]float32(nil)):
			f.Set(reflect.ValueOf(srOutput(outputPart+3, i)))
		case f.Type() == reflect.TypeOf([3]int{}):
			f.Set(reflect.ValueOf([3]int{i, i + 1, i + 2}))
		default:
			t.Fatalf("Response.%s is a %s, which appendResponse has no case for", v.Type().Field(i).Name, f.Type())
		}
	}
	checkReply(t, replyPools(t), &r)
}

// TestFloat32ReplyFormBound: no float32 takes more than the 22 bytes
// maxElemBytes allows it, checked at every exponent with both signs and the
// mantissas at its ends, and -9.9999995e+20 takes exactly 22.
func TestFloat32ReplyFormBound(t *testing.T) {
	longest := 0
	for exp := uint32(0); exp < 0xff; exp++ {
		for _, mant := range []uint32{0, 1, 0x7fffff, 0x400000, 0x3fffff} {
			for _, sign := range []uint32{0, 1 << 31} {
				v := math.Float32frombits(sign | exp<<23 | mant)
				b, err := appendFloat(nil, float64(v), 32)
				if err != nil {
					t.Fatal(err)
				}
				longest = max(longest, len(b))
				if len(b) > maxElemBytes-1 {
					t.Fatalf("%g is %d bytes (%s), over the %d maxElemBytes allows", v, len(b), b, maxElemBytes-1)
				}
			}
		}
	}
	if b, _ := appendFloat(nil, float64(float32(-9.9999995e+20)), 32); len(b) != maxElemBytes-1 {
		t.Fatalf("-9.9999995e+20 is %q, want 22 bytes", b)
	}
	t.Logf("longest sampled element: %d bytes", longest)
}

// FuzzInferResponseEncode: for any reply — strings of any bytes, outputs of
// raw float32 bit patterns (nil, empty, or tiled to a length across part
// boundaries), float64 timings of any bits — appendResponse writes
// encoding/json's bytes at pool widths 1 and 2, or fails where it fails.
func FuzzInferResponseEncode(f *testing.F) {
	pools := replyPools(f)
	nan, inf := math.Float32bits(float32(math.NaN())), math.Float32bits(float32(math.Inf(1)))
	le := func(ws ...uint32) []byte {
		b := make([]byte, 0, 4*len(ws))
		for _, w := range ws {
			b = append(b, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		}
		return b
	}
	finite := le(math.Float32bits(0.5), math.Float32bits(-9.9999995e+20), math.Float32bits(3e-7), 0x80000000)
	for _, n := range []int{-1, 0, 1, 10, outputPart - 1, outputPart, outputPart + 1, 2*outputPart - 1, 2*outputPart + 1} {
		f.Add("srgen", "", "v1", "packed", finite, n, 3, 1, math.Float64bits(0.012), math.Float64bits(1.5))
	}
	f.Add("<&>", "\u2028", "\xff", "\x01\n", le(nan), 5, 0, 0, uint64(0), uint64(0))
	f.Add("a", "b", "", "", le(1, inf|1<<31), 2*outputPart+1, 0, 0, math.Float64bits(math.NaN()), uint64(0))
	f.Add("a", "", "", "", finite, 3, 0, 0, uint64(0), math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, network, dataset, version, level string, raw []byte, n, shape, argmax int,
		queueBits, runBits uint64) {
		r := &Response{Network: network, Dataset: dataset, Version: version, Level: level,
			Shape: [3]int{shape, -shape, n}, ArgMax: argmax, BatchSize: argmax >> 8,
			QueueMs: math.Float64frombits(queueBits), RunMs: math.Float64frombits(runBits)}
		if n >= 0 {
			r.Output = make([]float32, n%(3*outputPart+2))
			for i := range r.Output {
				if w := len(raw) / 4; w > 0 {
					j := 4 * (i % w)
					r.Output[i] = math.Float32frombits(uint32(raw[j]) | uint32(raw[j+1])<<8 |
						uint32(raw[j+2])<<16 | uint32(raw[j+3])<<24)
				} else {
					r.Output[i] = float32(i) / 7
				}
			}
		}
		checkReply(t, pools, r)
	})
}

// TestReplyEncodeAllocatesNothing: a warm encoder owns its buffer and part
// state, so an SR reply split over the pool allocates nothing, under -race
// too.
func TestReplyEncodeAllocatesNothing(t *testing.T) {
	r := &Response{Network: "srgen", Shape: [3]int{3, 64, 64}, Output: srOutput(12288, 0), BatchSize: 1}
	for _, pool := range replyPools(t) {
		enc := newReplyEncoder()
		encode := func() {
			if _, err := enc.encode(pool, r); err != nil {
				t.Fatal(err)
			}
		}
		encode()
		if allocs := testing.AllocsPerRun(20, encode); allocs != 0 {
			t.Errorf("width %d: the reply encoder makes %v allocations per SR reply", pool.Workers(), allocs)
		}
	}
}

// BenchmarkInferResponseEncode times the SR reply — 12288 floats, 134 KB —
// through encoding/json and through the reply encoder on one and two workers.
func BenchmarkInferResponseEncode(b *testing.B) {
	r := &Response{Network: "srgen", Shape: [3]int{3, 64, 64}, Output: srOutput(12288, 0), BatchSize: 1,
		QueueMs: 0.012, RunMs: 0.8}
	b.Run("encoding/json", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := json.NewEncoder(&buf).Encode(r); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, pool := range replyPools(b) {
		b.Run("replyEncoder/w"+strconv.Itoa(pool.Workers()), func(b *testing.B) {
			b.ReportAllocs()
			enc := newReplyEncoder()
			for i := 0; i < b.N; i++ {
				if _, err := enc.encode(pool, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParseRequest(b *testing.B) {
	in := make([]float32, 3072)
	for i := range in {
		in[i] = float32(math.Sin(float64(i))) * 3
	}
	body, _ := json.Marshal(Request{Network: "srgen", Input: in})
	b.Run("ParseRequest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ParseRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PeekRequest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := PeekRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json.Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req Request
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
