package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"patdnn/internal/runtime"
)

func postInfer(t *testing.T, h http.Handler, body io.Reader) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/infer", body))
	return rec
}

// wantErrorBody checks a non-200 /infer reply: the status, and the usual
// {"error": ...} body.
func wantErrorBody(t *testing.T, rec *httptest.ResponseRecorder, status int) {
	t.Helper()
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("status %d, body %.200q: want a JSON error body", rec.Code, rec.Body.Bytes())
	}
	if rec.Code != status {
		t.Fatalf("status %d (%s), want %d", rec.Code, body["error"], status)
	}
}

func TestInferReplyCarriesItsLength(t *testing.T) {
	h := NewHandler(tinyEngine(t, Config{Workers: 1}), nil, "r0")
	rec := postInfer(t, h, strings.NewReader(`{"network":"tiny","dataset":"synthetic"}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
		t.Fatalf("Content-Length %q on a %s-byte reply", got, want)
	}
	var resp Response
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Shape != [3]int{4, 1, 1} {
		t.Fatalf("reply %q: %v", rec.Body.Bytes(), err)
	}
}

// TestInferReplyNonFiniteIs500: JSON cannot carry NaN or ±Inf. Wherever one
// sits in a multi-part output — first, either side of a part boundary, last —
// the reply is a 500 whose whole body is a JSON error: no 200 goes out first
// and no part of the output follows.
func TestInferReplyNonFiniteIs500(t *testing.T) {
	pool := runtime.NewPool(2)
	defer pool.Close()
	n := 3*outputPart + 5
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for _, at := range []int{0, outputPart - 1, outputPart, n - 1} {
			out := srOutput(n, at)
			out[at] = bad
			rec := httptest.NewRecorder()
			writeInferResponse(rec, pool, &Response{Network: "srgen", Shape: [3]int{n, 1, 1}, Output: out})
			wantErrorBody(t, rec, http.StatusInternalServerError)
		}
	}
}

// TestInferReplyConcurrentAndAfterClose: two goroutines write SR-sized
// replies over one engine's pool at once, and a reply written after
// Engine.Close runs its parts on the caller; every body is encoding/json's,
// byte for byte.
func TestInferReplyConcurrentAndAfterClose(t *testing.T) {
	eng := New(Config{Workers: 2})
	check := func(seed int) error {
		r := &Response{Network: "srgen", Shape: [3]int{3, 64, 64}, Output: srOutput(12288, seed), BatchSize: 1}
		want, err := replyOracle(r)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		writeInferResponse(rec, eng.pool, r)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			return fmt.Errorf("seed %d: status %d, %d-byte body differs from encoding/json's %d bytes",
				seed, rec.Code, rec.Body.Len(), len(want))
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 10 {
				if err := check(2*i + g); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := check(99); err != nil {
		t.Fatalf("after Close: %v", err)
	}
}

// spaces is an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func TestInferBodyOverLimitIs413(t *testing.T) {
	h := NewHandler(tinyEngine(t, Config{Workers: 1}), nil, "r0")
	// Declared: refused on the header, before anything is read or allocated.
	req := httptest.NewRequest(http.MethodPost, "/infer", strings.NewReader("{}"))
	req.ContentLength = 1 << 40
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	wantErrorBody(t, rec, http.StatusRequestEntityTooLarge)

	// Undeclared (a chunked upload): refused once the limit is crossed.
	rec = postInfer(t, h, io.LimitReader(spaces{}, MaxRequestBytes+1))
	wantErrorBody(t, rec, http.StatusRequestEntityTooLarge)
}

// TestInferRejectsTrailingGarbage: one request per body. json.Decoder.Decode
// used to stop at the end of the first value and let the rest through.
func TestInferRejectsTrailingGarbage(t *testing.T) {
	h := NewHandler(tinyEngine(t, Config{Workers: 1}), nil, "r0")
	for _, body := range []string{
		`{"network":"tiny","dataset":"synthetic"} x`,
		`{"network":"tiny","dataset":"synthetic"}{"network":"tiny"}`,
		`{"network":"tiny","dataset":"synthetic","input":[1,2`,
	} {
		wantErrorBody(t, postInfer(t, h, strings.NewReader(body)), http.StatusBadRequest)
	}
}

// TestRouteBodyOverLimitIs413: a POST /registry/route body past the control
// limit is refused with 413 and changes no route, though its JSON is a valid
// route request; the same request without the padding sets the route.
func TestRouteBodyOverLimitIs413(t *testing.T) {
	dir := t.TempDir()
	writeTinyArtifact(t, dir, "tiny", "v1", 100)
	writeTinyArtifact(t, dir, "tiny", "v2", 200)
	eng, reg := registryEngine(t, dir, 0, Config{Workers: 1})
	h := NewHandler(eng, reg, "")
	post := func(pad int) *httptest.ResponseRecorder {
		body := `{"model":"tiny","weights":{"v1":1},"pad":"` + strings.Repeat("x", pad) + `"}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/registry/route", strings.NewReader(body)))
		return rec
	}
	wantErrorBody(t, post(2<<20), http.StatusRequestEntityTooLarge)
	if routes := reg.Routes(); len(routes) != 0 {
		t.Fatalf("an oversized body changed the routes: %v", routes)
	}
	if rec := post(1); rec.Code != http.StatusOK || len(reg.Routes()["tiny"]) == 0 {
		t.Fatalf("honest route request: status %d, routes %v", rec.Code, reg.Routes())
	}
}
