// Package router is the fleet front door: it consistent-hashes inference
// requests onto a set of patdnn-serve replicas, health-checks each replica
// with an ejection/half-open-recovery state machine, retries idempotent
// sheds on a ring sibling (spill-on-shed), and aggregates the fleet's
// /stats and /models views behind one endpoint.
//
// The design target is the PatDNN serving story scaled out: each replica is
// a full compressed-model engine with its own plan cache and class lanes;
// the router's job is purely placement and failure handling, never compute.
// Consistent hashing keeps each (model, dataset) key pinned to one replica
// so its plan cache and lanes stay warm — spreading one model across the
// fleet would multiply compile work and resident plans.
package router

import "sort"

// Ring is a consistent-hash ring over replica URLs with virtual nodes.
// Hashing is FNV-1a 64-bit over explicit strings, so placement is fully
// deterministic across processes and restarts: a router restart (or a
// second router instance over the same replica list) routes every key
// identically. Construction order of members does not matter.
type Ring struct {
	vnodes  int
	members []string // sorted, deduplicated
	points  []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

// fnv64a is FNV-1a 64-bit, inlined so the hash is a fixed part of the wire
// contract (hash/fnv would work today, but spelling it out pins it).
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// vnodeLabel derives the i-th virtual node's hash input for a member.
func vnodeLabel(member string, i int) string {
	// member#i with a manual itoa keeps this allocation-light and obvious.
	buf := make([]byte, 0, len(member)+6)
	buf = append(buf, member...)
	buf = append(buf, '#')
	if i == 0 {
		buf = append(buf, '0')
	} else {
		var digits [10]byte
		n := 0
		for i > 0 {
			digits[n] = byte('0' + i%10)
			i /= 10
			n++
		}
		for n > 0 {
			n--
			buf = append(buf, digits[n])
		}
	}
	return string(buf)
}

// NewRing builds a ring over members with vnodes virtual nodes each
// (vnodes <= 0 selects the default, 128). Duplicate members collapse.
func NewRing(members []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 128
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{vnodes: vnodes, members: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for _, m := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{fnv64a(vnodeLabel(m, i)), m})
		}
	}
	// Ties (distinct vnode labels hashing equal) are broken by member name so
	// two rings built from any permutation of the same set agree exactly.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// Members returns the ring's member set, sorted.
func (r *Ring) Members() []string {
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Pick returns the member owning key: the first virtual node clockwise from
// the key's hash. Empty rings return "".
func (r *Ring) Pick(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].member
}

// Candidates returns every member in the key's clockwise walk order, primary
// first. The second entry is the spill sibling: the replica that would own
// the key if the primary left the ring, so shed traffic lands where the key
// would live anyway.
func (r *Ring) Candidates(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	for i, start := 0, r.search(key); len(out) < len(r.members); i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// search finds the index of the first point with hash >= hash(key),
// wrapping to 0 past the last point.
func (r *Ring) search(key string) int {
	h := fnv64a(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}
