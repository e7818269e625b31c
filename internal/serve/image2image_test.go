package serve

// E2E coverage for image-to-image serving: /infer must carry a whole output
// feature map (12288 floats for the SR generator on CIFAR-sized input)
// through JSON without bloat or truncation, the response shape field must
// describe the tensor, and lane admission must account for output bytes —
// a slot-count bound alone would let a feature-map model commit unbounded
// response memory.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"patdnn/internal/compiler/execgraph"
	"patdnn/internal/model"
	"patdnn/internal/tensor"
)

func TestEngineServesSRTensorOutput(t *testing.T) {
	eng := New(Config{Workers: 2})
	defer eng.Close()
	r, err := eng.Infer(context.Background(), Request{Network: "SR", Dataset: "cifar10"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shape != [3]int{3, 64, 64} {
		t.Fatalf("SR output shape %v, want [3,64,64]", r.Shape)
	}
	if len(r.Output) != 3*64*64 {
		t.Fatalf("SR output carries %d values, want %d", len(r.Output), 3*64*64)
	}

	// The served output must match the dense unfused reference on the same
	// deterministic parameters and synthetic input (engine defaults: 8
	// patterns, 3.6x, seed 42; nil input = Randn seed 1).
	m, err := model.ByName("SR", "cifar10")
	if err != nil {
		t.Fatal(err)
	}
	params, err := execgraph.Generate(m, 8, 3.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(m.InC, m.InH, m.InW)
	x.Randn(rand.New(rand.NewSource(1)), 1)
	want, err := execgraph.Reference(m, params, x)
	if err != nil {
		t.Fatal(err)
	}
	got := tensor.FromSlice(r.Output, r.Shape[0], r.Shape[1], r.Shape[2])
	if d := got.MaxAbsDiff(want); d > 1e-4 {
		t.Fatalf("served SR output diverged from dense reference by %g", d)
	}
}

func TestInferHTTPLargeTensorResponse(t *testing.T) {
	eng := New(Config{Workers: 2})
	defer eng.Close()
	srv := httptest.NewServer(NewHandler(eng, nil, "test"))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/infer", "application/json",
		bytes.NewBufferString(`{"network":"SR","dataset":"cifar10"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	var r Response
	if err := json.NewDecoder(io.TeeReader(resp.Body, &buf)).Decode(&r); err != nil {
		t.Fatalf("multi-thousand-element response failed to decode: %v", err)
	}
	if r.Shape != [3]int{3, 64, 64} || len(r.Output) != 12288 {
		t.Fatalf("shape %v with %d values, want [3,64,64]/12288", r.Shape, len(r.Output))
	}
	// The /infer encoder must be compact: the indent writer put every tensor
	// element on its own line, bloating the payload past double.
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n > 1 {
		t.Fatalf("/infer response contains %d newlines; expected compact encoding", n)
	}
}

func TestQueueBytesAdmissionSheds(t *testing.T) {
	// A byte budget below one SR output (48 KiB) sheds every request at
	// admission — the lane can never commit to a response it has no budget
	// for — and the shed is the standard ErrOverloaded fast-fail.
	eng := New(Config{Workers: 2, QueueBytes: 1024})
	defer eng.Close()
	if err := eng.Preload("SR", "cifar10"); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Infer(context.Background(), Request{Network: "SR", Dataset: "cifar10"})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	s := eng.Stats()
	if s.Shed != 1 || s.Errors != 0 {
		t.Fatalf("Shed=%d Errors=%d, want 1/0 (byte shed is admission control, not an error)", s.Shed, s.Errors)
	}
	for _, q := range s.Queues {
		if q.QueuedBytes != 0 {
			t.Fatalf("lane %s/%s holds %d queued bytes after shed, want 0", q.Network, q.Class, q.QueuedBytes)
		}
		if q.ByteCapacity != 1024 {
			t.Fatalf("lane byte capacity %d, want 1024", q.ByteCapacity)
		}
	}
}

func TestQueueBytesReleasedAfterSweep(t *testing.T) {
	// With a budget of exactly two outputs, serving sequential requests must
	// keep succeeding: each sweep releases its reservation.
	eng := New(Config{Workers: 2, QueueBytes: 2 * 4 * 12288})
	defer eng.Close()
	for i := 0; i < 5; i++ {
		if _, err := eng.Infer(context.Background(), Request{Network: "SR", Dataset: "cifar10"}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if s := eng.Stats(); s.Shed != 0 {
		t.Fatalf("Shed=%d, want 0 (reservations must be released)", s.Shed)
	}
}
