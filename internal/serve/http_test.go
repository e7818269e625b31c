package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
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
