package router_test

// The /infer wire contract on both hops: the serve-backed cases are put to a
// replica directly (serve.NewHandler) and to the router in front of it
// (router.Handler), and both must give the same answer. The fake-replica
// cases put replies no real replica sends to the router alone.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"patdnn/internal/router"
	"patdnn/internal/router/routertest"
	"patdnn/internal/serve"
)

// wireFleet is replicas serving the generator's SR net, and a router in front.
func wireFleet(t *testing.T, replicas int) (fleet *routertest.Fleet, front *httptest.Server) {
	t.Helper()
	fleet = routertest.NewFleet(t, routertest.Options{Replicas: replicas})
	for _, rp := range fleet.Replicas {
		if err := rp.Engine.Preload("SR", "cifar10"); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := router.New(router.Config{Replicas: fleet.URLs()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front = httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return fleet, front
}

// bothHops runs check against the first replica's URL and the router's.
func bothHops(t *testing.T, check func(t *testing.T, url string)) {
	fleet, front := wireFleet(t, 1)
	t.Run("replica", func(t *testing.T) { check(t, fleet.Replicas[0].URL()) })
	t.Run("router", func(t *testing.T) { check(t, front.URL) })
}

func srBody(t *testing.T, fill func(i int) float32) []byte {
	t.Helper()
	in := make([]float32, 3*32*32)
	for i := range in {
		in[i] = fill(i)
	}
	body, err := json.Marshal(serve.Request{Network: "SR", Dataset: "cifar10", Input: in})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// rawPost writes one POST /infer with the given Content-Length, whatever the
// body's real length, and reads the reply. When the header promises more than
// the body holds it half-closes, so the server sees the upload end early
// instead of waiting for the rest.
func rawPost(t *testing.T, url string, contentLength int64, body []byte) (status int, reply []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /infer HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\nConnection: close\r\n\r\n", contentLength)
	// The server may answer and close before the whole body is in.
	_, _ = conn.Write(body)
	if contentLength > int64(len(body)) {
		_ = conn.(*net.TCPConn).CloseWrite()
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func wantError(t *testing.T, status int, reply []byte, want int) {
	t.Helper()
	var body map[string]string
	if err := json.Unmarshal(reply, &body); err != nil || body["error"] == "" {
		t.Fatalf("status %d, body %.200q: want a JSON error body", status, reply)
	}
	if status != want {
		t.Fatalf("status %d (%s), want %d", status, body["error"], want)
	}
}

// TestUnencodableOutputIs500 — at the parent commit both hops answered 200
// with an empty body.
func TestUnencodableOutputIs500(t *testing.T) {
	body := srBody(t, func(int) float32 { return math.MaxFloat32 })
	bothHops(t, func(t *testing.T, url string) {
		status, reply := rawPost(t, url, int64(len(body)), body)
		wantError(t, status, reply, http.StatusInternalServerError)
	})
}

// TestLevelKeyIsIgnored: "level" is no longer a request key. A body that still
// carries one is served at the engine's level, as with any unknown key — the
// reply names the kernels that ran.
func TestLevelKeyIsIgnored(t *testing.T) {
	body := []byte(`{"level":"noopt","network":"SR","dataset":"cifar10"}`)
	bothHops(t, func(t *testing.T, url string) {
		status, reply := rawPost(t, url, int64(len(body)), body)
		var resp serve.Response
		if err := json.Unmarshal(reply, &resp); err != nil || status != http.StatusOK {
			t.Fatalf("status %d, decode error %v: %.200s", status, err, reply)
		}
		if resp.Level != "packed" {
			t.Fatalf("served at level %q, want the engine's packed", resp.Level)
		}
	})
}

func TestBodyLimits(t *testing.T) {
	body := srBody(t, func(i int) float32 { return float32(i%7) / 7 })
	bothHops(t, func(t *testing.T, url string) {
		// An honest request, for contrast.
		if status, reply := rawPost(t, url, int64(len(body)), body); status != http.StatusOK {
			t.Fatalf("honest request: status %d: %.200s", status, reply)
		}
		// Over the limit: 413, on the header alone.
		status, reply := rawPost(t, url, serve.MaxRequestBytes+1, body)
		wantError(t, status, reply, http.StatusRequestEntityTooLarge)
		// Content-Length shorter than the body: the server sees a truncated
		// request and must not guess at the rest.
		status, reply = rawPost(t, url, int64(len(body)/2), body)
		wantError(t, status, reply, http.StatusBadRequest)
		// Longer than the body: the upload ends early.
		status, reply = rawPost(t, url, int64(2*len(body)), body)
		wantError(t, status, reply, http.StatusBadRequest)
	})
}

// TestNoCrossTalkThroughPooledBuffers pushes distinct inputs from many
// goroutines through router → replica and checks every reply against its own
// input's reference: a request or reply buffer handed back to the pool while
// still in use shows up as another request's numbers (or, under -race, as a
// report).
func TestNoCrossTalkThroughPooledBuffers(t *testing.T) {
	const clients, rounds = 8, 12
	fleet, front := wireFleet(t, 2)
	bodies := make([][]byte, clients)
	refs := make([][]float32, clients)
	for c := range bodies {
		bodies[c] = srBody(t, func(i int) float32 { return float32(c+1) * float32(i%29-14) / 14 })
		var req serve.Request
		if err := json.Unmarshal(bodies[c], &req); err != nil {
			t.Fatal(err)
		}
		resp, err := fleet.Replicas[0].Engine.Infer(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		refs[c] = resp.Output
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				hr, err := http.Post(front.URL+"/infer", "application/json", bytes.NewReader(bodies[c]))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				var resp serve.Response
				err = json.NewDecoder(hr.Body).Decode(&resp)
				hr.Body.Close()
				if err != nil || hr.StatusCode != http.StatusOK || len(resp.Output) != len(refs[c]) {
					t.Errorf("client %d round %d: status %d, %d outputs, decode error %v",
						c, round, hr.StatusCode, len(resp.Output), err)
					return
				}
				for i, v := range resp.Output {
					if v != refs[c][i] {
						t.Errorf("client %d round %d: output[%d] = %g, its own input gives %g",
							c, round, i, v, refs[c][i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// fakeFront puts a router in front of replicas that answer /readyz with 200
// and /infer with infer, and returns the router's URL.
func fakeFront(t *testing.T, replicas int, infer http.HandlerFunc) string {
	t.Helper()
	var urls []string
	for i := 0; i < replicas; i++ {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /readyz", func(http.ResponseWriter, *http.Request) {})
		mux.HandleFunc("POST /infer", infer)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	rt, err := router.New(router.Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return front.URL
}

// postInfer sends one small /infer through url with a client-side bound, so
// a router that holds the request fails the test instead of hanging it.
func postInfer(url string) (*http.Response, []byte, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(url+"/infer", "application/json",
		strings.NewReader(`{"network":"SR","dataset":"cifar10"}`))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// TestEndlessShedStillSpills: the first /infer is shed with a 429 whose body
// never ends. The router must give up on that body and take the sibling's
// answer, not read the shed until the client gives up.
func TestEndlessShedStillSpills(t *testing.T) {
	const answer = `{"from":"sibling"}`
	var calls atomic.Int32
	url := fakeFront(t, 2, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) > 1 {
			io.WriteString(w, answer)
			return
		}
		w.WriteHeader(http.StatusTooManyRequests)
		chunk := bytes.Repeat([]byte("x"), 32<<10)
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	})
	resp, body, err := postInfer(url)
	if err != nil {
		t.Fatalf("spill past an endless shed: %v", err)
	}
	if resp.StatusCode != http.StatusOK || string(body) != answer {
		t.Fatalf("status %d, body %.200q: want the sibling's 200 %q", resp.StatusCode, body, answer)
	}
}

// TestTruncatedReplyIsAnError: a chunked 200 cut off mid-body must reach the
// client as a broken stream, never as a short body ending in a clean EOF; the
// router then serves the next request.
func TestTruncatedReplyIsAnError(t *testing.T) {
	const answer = `{"shape":[1]}`
	var calls atomic.Int32
	url := fakeFront(t, 1, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) > 1 {
			io.WriteString(w, answer)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"output":[`+strings.Repeat("0.5,", 16<<10))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler) // drop the connection mid-body
	})
	if _, body, err := postInfer(url); err == nil {
		t.Fatalf("a reply cut off after %d bytes reached the client as a clean EOF", len(body))
	}
	resp, body, err := postInfer(url)
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != answer {
		t.Fatalf("next request: err %v, body %.200q", err, body)
	}
}

// TestMalformedReplyIsRelayed: the router never rewrites a reply, so a 200
// that is not JSON reaches the client byte for byte.
func TestMalformedReplyIsRelayed(t *testing.T) {
	const answer = "{\"output\": [1, 2,\x00 not json"
	url := fakeFront(t, 1, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, answer)
	})
	resp, body, err := postInfer(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || string(body) != answer {
		t.Fatalf("status %d, body %q: want 200 %q", resp.StatusCode, body, answer)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q not relayed", ct)
	}
}

// TestCloseReleasesReplicaConnections: Close drops the router's keep-alive
// connections to its replicas. Left to the transport's 30 s idle timeout,
// each one holds two goroutines and a descriptor past shutdown.
func TestCloseReleasesReplicaConnections(t *testing.T) {
	var open atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(http.ResponseWriter, *http.Request) {})
	mux.HandleFunc("POST /infer", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{}`)
	})
	replica := httptest.NewUnstartedServer(mux)
	replica.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	replica.Start()
	defer replica.Close()
	rt, err := router.New(router.Config{Replicas: []string{replica.URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	for range 4 {
		if resp, body, err := postInfer(front.URL); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("forward: err %v, body %.200q", err, body)
		}
	}
	if open.Load() == 0 {
		t.Fatal("no connection to the replica after four forwards")
	}
	rt.Close()
	for deadline := time.Now().Add(5 * time.Second); open.Load() > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d replica connections still open 5s after Close", open.Load())
		}
	}
}
