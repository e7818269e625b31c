package serve

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
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
