package serve

// The /infer request wire format. A request body is JSON and encoding/json is
// the single definition of what a body means; this file adds a single-pass
// scanner for the one shape every real client sends, so the common request —
// a 3072-float tensor is 33 KB of decimal text — costs a grammar walk and one
// exact-sized []float32 instead of reflection and a growing slice. The scanner
// only ever says "this is that shape, and here are its fields" or "not
// recognised"; it never rejects. Anything it does not positively recognise —
// escapes, unknown, case-variant or duplicate keys, null, nested values,
// non-ASCII strings, numbers outside the float range, trailing bytes — goes to
// json.Unmarshal untouched, which then accepts or rejects it.
//
// The router needs three of the fields and none of the tensor, so the same
// scanner runs there with the input span validated but not converted.
//
// Bodies on both hops are read once into pooled buffers (ReadBody/PutBuffer),
// bounded by MaxRequestBytes.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// MaxRequestBytes bounds an /infer request body on the replica and on the
// router; a larger body is refused with 413.
const MaxRequestBytes = 64 << 20

// ParseRequest decodes an /infer request body. It accepts and rejects exactly
// what json.Unmarshal into a Request does, with the same field values.
func ParseRequest(body []byte) (Request, error) { return parseRequest(body, true) }

// PeekRequest is ParseRequest for a caller that routes the body instead of
// running it: Input is checked but left nil. (It accepts a tensor element
// outside the float32 range, which ParseRequest rejects; the replica still
// does.)
func PeekRequest(body []byte) (Request, error) { return parseRequest(body, false) }

func parseRequest(body []byte, withInput bool) (Request, error) {
	var req Request
	if scanRequest(body, &req, withInput) {
		return req, nil
	}
	// A fresh value: the scanner may have filled some of req before giving
	// up, and only this one, which json.Unmarshal sees, moves to the heap.
	var slow Request
	err := json.Unmarshal(body, &slow)
	if !withInput {
		slow.Input = nil
	}
	return slow, err
}

// scanRequest recognises a top-level object whose keys are the Request JSON
// names, each at most once, with plain-ASCII unescaped string values, JSON
// numbers, and input as an array of numbers. It reports false for anything
// else, leaving req partly filled.
func scanRequest(b []byte, req *Request, withInput bool) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return skipSpace(b, i+1) == len(b)
	}
	var seen uint
	for {
		key, end := scanString(b, i)
		if end < 0 {
			return false
		}
		i = skipSpace(b, end)
		if i == len(b) || b[i] != ':' {
			return false
		}
		i = skipSpace(b, i+1)

		var field uint
		var str *string
		switch string(key) {
		case "network":
			field, str = 1<<0, &req.Network
		case "dataset":
			field, str = 1<<1, &req.Dataset
		case "class":
			field, str = 1<<2, &req.Class
		case "timeout_ms":
			field = 1 << 3
		case "input":
			field = 1 << 4
		default:
			return false
		}
		if seen&field != 0 {
			return false
		}
		seen |= field

		switch {
		case str != nil:
			val, end := scanString(b, i)
			if end < 0 {
				return false
			}
			*str, i = string(val), end
		case field == 1<<3:
			end := scanNumber(b, i)
			if end < 0 {
				return false
			}
			v, err := strconv.ParseFloat(string(b[i:end]), 64)
			if err != nil {
				return false
			}
			req.TimeoutMs, i = v, end
		default:
			if i = scanInput(b, i, req, withInput); i < 0 {
				return false
			}
		}

		i = skipSpace(b, i)
		if i == len(b) {
			return false
		}
		if b[i] == '}' {
			return skipSpace(b, i+1) == len(b)
		}
		if b[i] != ',' {
			return false
		}
		i = skipSpace(b, i+1)
	}
}

// scanInput reads an array of numbers starting at b[i] and returns the index
// after its ']', or -1. A number array holds no strings, so its first ']' ends
// it and its commas count its elements: the tensor is allocated once, exactly.
func scanInput(b []byte, i int, req *Request, convert bool) int {
	if i == len(b) || b[i] != '[' {
		return -1
	}
	i = skipSpace(b, i+1)
	stop := bytes.IndexByte(b[i:], ']')
	if stop < 0 {
		return -1
	}
	stop += i
	if i == stop {
		if convert {
			req.Input = []float32{} // as json.Unmarshal: present and empty, not nil
		}
		return stop + 1
	}
	var out []float32
	if convert {
		out = make([]float32, 0, bytes.Count(b[i:stop], []byte{','})+1)
	}
	for {
		end := scanNumber(b, i)
		if end < 0 {
			return -1
		}
		if convert {
			// The span is JSON number grammar, so ParseFloat can only fail on
			// range. The string conversion stays on the stack for the ≤ 32
			// bytes a float32's decimal form takes.
			v, err := strconv.ParseFloat(string(b[i:end]), 32)
			if err != nil {
				return -1
			}
			out = append(out, float32(v))
		}
		i = skipSpace(b, end)
		if i == stop {
			req.Input = out
			return stop + 1
		}
		if b[i] != ',' {
			return -1
		}
		i = skipSpace(b, i+1)
	}
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString reads a double-quoted string of printable ASCII without escapes
// starting at b[i]; it returns the bytes between the quotes and the index
// after the closing quote, or end -1.
func scanString(b []byte, i int) (val []byte, end int) {
	if i == len(b) || b[i] != '"' {
		return nil, -1
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1
		case c == '\\' || c < 0x20 || c >= 0x7f:
			return nil, -1
		}
	}
	return nil, -1
}

// scanNumber reads one number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, starting at b[i] and returns
// the index after it, or -1. What follows the number is the caller's to check.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return -1
	case b[i] == '0':
		i++
	case '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// bufPool holds the request and reply bodies of /infer. A buffer that grew
// past maxPooledBytes is left to the collector so that one huge request does
// not pin its memory in the pool.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBytes = 4 << 20

// ReadBody reads an /infer request body into a pooled buffer sized up front
// from Content-Length. A body that declares or turns out to hold more than
// MaxRequestBytes fails with *http.MaxBytesError (InferStatus maps it to 413),
// so the header can never size an allocation past the limit. The caller hands
// the buffer to PutBuffer once nothing references its bytes.
func ReadBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, error) {
	if r.ContentLength > MaxRequestBytes {
		return nil, &http.MaxBytesError{Limit: MaxRequestBytes}
	}
	buf := bufPool.Get().(*bytes.Buffer)
	// ReadFrom wants MinRead spare bytes to see EOF; without them a buffer of
	// exactly Content-Length bytes would double on its last read.
	buf.Grow(int(max(r.ContentLength, 0)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxRequestBytes)); err != nil {
		PutBuffer(buf)
		return nil, err
	}
	return buf, nil
}

// PutBuffer returns a ReadBody buffer to the pool.
func PutBuffer(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBytes {
		buf.Reset()
		bufPool.Put(buf)
	}
}
