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
// The reply is encoding/json's too: appendResponse writes exactly the bytes
// json.NewEncoder(w).Encode(resp) writes, without reflection, and formats a
// long output array in parts over the engine's worker pool. Tensor floats
// cross both ways through float32.go's exact codec.
//
// Bodies on both hops are read once into pooled buffers (ReadBody/PutBuffer),
// bounded by MaxRequestBytes.

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"patdnn/internal/runtime"
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
			end := scanNumber(b, i, nil)
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
	var n *number
	if convert {
		out = make([]float32, 0, bytes.Count(b[i:stop], []byte{','})+1)
		n = new(number) // on the stack
	}
	for {
		end := scanNumber(b, i, n)
		if end < 0 {
			return -1
		}
		if convert {
			v, err := parseFloat32(b[i:end], *n)
			if err != nil {
				return -1
			}
			out = append(out, v)
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
// the index after it, or -1; given n, it also reads the number's value into
// n. What follows the number is the caller's to check.
func scanNumber(b []byte, i int, n *number) int {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	intStart := i
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
	intEnd, fracEnd := i, i
	if i < len(b) && b[i] == '.' {
		fracEnd = skipDigits(b, i+1)
		if fracEnd == i+1 {
			return -1
		}
		i = fracEnd
	}
	expStart := i
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
	if n != nil {
		*n = number{neg: neg}
		n.addDigits(b[intStart:intEnd])
		if fracEnd > intEnd {
			n.addDigits(b[intEnd+1 : fracEnd])
			n.exp = intEnd + 1 - fracEnd
		}
		if expStart < i {
			n.addExponent(b[expStart+1 : i])
		}
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// outputPart is the fewest output elements a part of the reply formats:
// about 60 µs at appendFloat32's ~60 ns a float (2-vCPU Xeon), against the
// few microseconds a fork costs. Parts of 512 and 2048 encoded an SR reply
// on two workers no faster. A classifier's reply is one part and forks
// nothing.
const outputPart = 1024

// maxElemBytes bounds one output element and the comma before it. The
// longest float32 encoding/json writes is 22 bytes: -9.9999995e+20 prints as
// -999999950000000000000.
const maxElemBytes = 22 + 1

// maxReplyBytes bounds appendResponse's output, so the reply buffer is sized
// once: a string byte escapes to at most six, an element takes at most
// maxElemBytes, and keys, brackets and the other numbers stay under 512.
func maxReplyBytes(r *Response) int {
	return 6*(len(r.Network)+len(r.Dataset)+len(r.Version)+len(r.Level)) +
		len(r.Output)*maxElemBytes + 512
}

// A replyEncoder writes /infer replies: a buffer, and the state that formats
// a long output in parts. Replies draw encoders from replyPool, apart from
// the request bodies in bufPool: an SR reply reserves eight times its
// request, and a request buffer drawn for a reply would be regrown.
type replyEncoder struct {
	buf  []byte
	out  []float32 // the output being formatted in parts
	dst  []byte    // len(out)·maxElemBytes; element i's slot starts at i·maxElemBytes
	ends []int     // bytes part p wrote from its first slot, or -1 at a NaN or ±Inf
	// format is formatParts, bound once so that a fork allocates nothing.
	format func(lo, hi int)
}

func newReplyEncoder() *replyEncoder {
	e := new(replyEncoder)
	e.format = e.formatParts
	return e
}

var replyPool = sync.Pool{New: func() any { return newReplyEncoder() }}

// encode returns r as json.NewEncoder(w).Encode(r) writes it, in e's buffer
// sized once by maxReplyBytes; the bytes are valid until e encodes again.
func (e *replyEncoder) encode(pool *runtime.Pool, r *Response) ([]byte, error) {
	b, err := e.appendResponse(slices.Grow(e.buf[:0], maxReplyBytes(r)), pool, r)
	e.buf = b
	return b, err
}

// appendResponse appends r as json.NewEncoder(w).Encode(r) writes it: the
// same field order and omitempty rules, HTML-escaped strings, floats in
// encoding/json's form, a trailing newline. A NaN or ±Inf anywhere is the
// error encoding/json returns, and the bytes appended so far are garbage.
func (e *replyEncoder) appendResponse(b []byte, pool *runtime.Pool, r *Response) ([]byte, error) {
	b = appendString(append(b, `{"network":`...), r.Network)
	if r.Dataset != "" {
		b = appendString(append(b, `,"dataset":`...), r.Dataset)
	}
	if r.Version != "" {
		b = appendString(append(b, `,"version":`...), r.Version)
	}
	if r.Level != "" {
		b = appendString(append(b, `,"level":`...), r.Level)
	}
	b = strconv.AppendInt(append(b, `,"shape":[`...), int64(r.Shape[0]), 10)
	b = strconv.AppendInt(append(b, ','), int64(r.Shape[1]), 10)
	b = strconv.AppendInt(append(b, ','), int64(r.Shape[2]), 10)
	b, err := e.appendOutput(append(b, `],"output":`...), pool, r.Output)
	if err != nil {
		return b, err
	}
	b = strconv.AppendInt(append(b, `,"argmax":`...), int64(r.ArgMax), 10)
	b = strconv.AppendInt(append(b, `,"batch_size":`...), int64(r.BatchSize), 10)
	if b, err = appendFloat(append(b, `,"queue_ms":`...), r.QueueMs, 64); err != nil {
		return b, err
	}
	if b, err = appendFloat(append(b, `,"run_ms":`...), r.RunMs, 64); err != nil {
		return b, err
	}
	return append(b, "}\n"...), nil
}

// appendString appends s quoted as encoding/json writes it: printable ASCII
// other than "\<>& verbatim, anything else through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendFloat appends f as encoding/json writes a float of bitSize bits:
// 'f', or 'e' outside 1e-6 ≤ |f| < 1e21 with e-07 written e-7. NaN and ±Inf
// are json.UnsupportedValueError.
func appendFloat(b []byte, f float64, bitSize int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, bitSize)}
	}
	format := byte('f')
	// A float32 takes float32 cutoffs, as in encoding/json.
	if abs := math.Abs(f); abs != 0 && (bitSize == 64 && (abs < 1e-6 || abs >= 1e21) ||
		bitSize == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21)) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, bitSize)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendFloats appends vs as elements of a float32 array, each after a comma
// but the first, which gets one too when more is set.
func appendFloats(b []byte, vs []float32, more bool) ([]byte, error) {
	for i, v := range vs {
		if i > 0 || more {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat32(b, v); err != nil {
			return b, err
		}
	}
	return b, nil
}

// appendOutput appends out as encoding/json writes a []float32. An array of
// more than one part is formatted over pool: part p writes into its own
// region of b's spare capacity, starting at its first element's
// maxElemBytes slot, and the regions are then moved together in order. A
// closed pool, or one with no fork slot free, runs every part on the caller.
func (e *replyEncoder) appendOutput(b []byte, pool *runtime.Pool, out []float32) ([]byte, error) {
	if out == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	parts := (len(out) + outputPart - 1) / outputPart
	if parts <= 1 {
		b, err := appendFloats(b, out, false)
		return append(b, ']'), err
	}
	b = slices.Grow(b, len(out)*maxElemBytes+1) // a no-op after maxReplyBytes
	base := len(b)
	e.out, e.dst = out, b[base:base+len(out)*maxElemBytes]
	defer func() { e.out, e.dst = nil, nil }()
	e.ends = slices.Grow(e.ends[:0], parts)[:parts]
	pool.ParallelFor(parts, e.format)
	n := 0
	for p, end := range e.ends {
		if end < 0 {
			_, err := appendFloats(nil, out[p*outputPart:min((p+1)*outputPart, len(out))], false)
			return b, err
		}
		start := p * outputPart * maxElemBytes
		n += copy(e.dst[n:], e.dst[start:start+end])
	}
	return append(b[:base+n], ']'), nil
}

// formatParts formats parts [lo, hi), each into its own region of dst.
func (e *replyEncoder) formatParts(lo, hi int) {
	for p := lo; p < hi; p++ {
		first, last := p*outputPart, min((p+1)*outputPart, len(e.out))
		start := first * maxElemBytes
		r, err := appendFloats(e.dst[start:start:last*maxElemBytes], e.out[first:last], p > 0)
		e.ends[p] = len(r)
		if err != nil {
			e.ends[p] = -1
		}
	}
}

// bufPool holds the request bodies of /infer. A buffer that grew past
// maxPooledBytes — here or in a replyEncoder — is left to the collector so
// that one huge request does not pin its memory in the pool.
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
