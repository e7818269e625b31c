//go:build exhaustive

package serve

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"
)

// TestFloat32WriterExhaustive writes every one of the 2^32 float32 bit
// patterns and holds each to strconv's bytes and, read back, to its own
// bits. It takes minutes, so it runs only under the exhaustive tag:
//
//	go test -tags exhaustive -run Float32WriterExhaustive -timeout 30m ./internal/serve
func TestFloat32WriterExhaustive(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	const chunk = 1 << 20
	next := make(chan uint64)
	go func() {
		for lo := uint64(0); lo < 1<<32; lo += chunk {
			next <- lo
		}
		close(next)
	}()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures int
	var first string
	fail := func(msg string) {
		mu.Lock()
		if failures++; failures == 1 {
			first = msg
		}
		mu.Unlock()
	}
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got, want []byte
			for lo := range next {
				for vb := lo; vb < lo+chunk; vb++ {
					v := math.Float32frombits(uint32(vb))
					var err, wantErr error
					got, err = appendFloat32(got[:0], v)
					want, wantErr = appendFloat(want[:0], float64(v), 32)
					if (err == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
						fail(string(got) + " != " + string(want))
						continue
					}
					if err != nil {
						continue
					}
					var n number
					end := scanNumber(got, 0, &n)
					if r, err := parseFloat32(got, n); end != len(got) || err != nil || math.Float32bits(r) != uint32(vb) {
						fail(string(got) + " reads back wrong")
					}
				}
			}
		}()
	}
	wg.Wait()
	if failures > 0 {
		t.Fatalf("%d of 2^32 float32s wrong, first: %s", failures, first)
	}
}
