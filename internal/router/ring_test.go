package router

// Property tests for the consistent-hash ring. The load-bearing claims:
//
//  1. Determinism: placement is a pure function of (member set, vnodes) —
//     construction order, process restarts, and separate router instances
//     all agree. (Two routers disagreeing would split one model's request
//     stream across replicas.)
//  2. Minimal disruption: adding a member moves keys only TO the new
//     member; removing one moves only ITS keys; and the moved fraction is
//     ~1/N, not a full reshuffle.
//  3. Candidates is a permutation of the members with the owner first, so
//     the spill sibling is always a real, distinct replica.

import (
	"fmt"
	"math/rand"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("model-%d\x00ds%d", i, i%3)
	}
	return keys
}

func members(n int) []string {
	m := make([]string, n)
	for i := range m {
		m[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return m
}

func TestRingDeterministicAcrossConstructionOrder(t *testing.T) {
	ms := members(5)
	a := NewRing(ms, 128)
	shuffled := append([]string(nil), ms...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	b := NewRing(shuffled, 128)
	for _, k := range testKeys(2000) {
		if a.Pick(k) != b.Pick(k) {
			t.Fatalf("key %q: order-dependent placement %q vs %q", k, a.Pick(k), b.Pick(k))
		}
	}
	// And across a "restart": a third, freshly built ring agrees too.
	c := NewRing(ms, 128)
	for _, k := range testKeys(100) {
		if a.Pick(k) != c.Pick(k) {
			t.Fatalf("key %q: rebuild changed placement", k)
		}
	}
}

func TestRingJoinMovesOnlyToNewMember(t *testing.T) {
	keys := testKeys(10000)
	for _, n := range []int{2, 4, 8} {
		small := NewRing(members(n), 128)
		grown := NewRing(members(n+1), 128)
		newcomer := fmt.Sprintf("http://10.0.0.%d:8080", n+1)
		moved := 0
		for _, k := range keys {
			before, after := small.Pick(k), grown.Pick(k)
			if before == after {
				continue
			}
			if after != newcomer {
				t.Fatalf("n=%d key %q moved %q -> %q, not to the new member %q",
					n, k, before, after, newcomer)
			}
			moved++
		}
		if moved == 0 {
			t.Fatalf("n=%d: join moved nothing — the new member owns no keys", n)
		}
		// Expected fraction is 1/(n+1); allow 2x for vnode variance.
		frac := float64(moved) / float64(len(keys))
		if limit := 2.0 / float64(n+1); frac > limit {
			t.Fatalf("n=%d: join moved %.1f%% of keys, want <= %.1f%%",
				n, frac*100, limit*100)
		}
	}
}

func TestRingLeaveMovesOnlyDepartedKeys(t *testing.T) {
	keys := testKeys(10000)
	ms := members(5)
	full := NewRing(ms, 128)
	departed := ms[2]
	var remaining []string
	for _, m := range ms {
		if m != departed {
			remaining = append(remaining, m)
		}
	}
	shrunk := NewRing(remaining, 128)
	moved := 0
	for _, k := range keys {
		before, after := full.Pick(k), shrunk.Pick(k)
		if before != departed {
			if after != before {
				t.Fatalf("key %q not owned by departed member moved %q -> %q", k, before, after)
			}
			continue
		}
		if after == departed {
			t.Fatalf("key %q still maps to removed member", k)
		}
		moved++
	}
	if frac := float64(moved) / float64(len(keys)); frac > 2.0/5 {
		t.Fatalf("leave moved %.1f%% of keys, want <= %.1f%%", frac*100, 100*2.0/5)
	}
}

func TestRingCandidatesIsOwnerFirstPermutation(t *testing.T) {
	ms := members(6)
	r := NewRing(ms, 64)
	for _, k := range testKeys(500) {
		cands := r.Candidates(k)
		if len(cands) != len(ms) {
			t.Fatalf("key %q: %d candidates, want %d", k, len(cands), len(ms))
		}
		if cands[0] != r.Pick(k) {
			t.Fatalf("key %q: candidates[0]=%q but Pick=%q", k, cands[0], r.Pick(k))
		}
		seen := map[string]bool{}
		for _, c := range cands {
			if seen[c] {
				t.Fatalf("key %q: duplicate candidate %q", k, c)
			}
			seen[c] = true
		}
	}
}

func TestRingBalance(t *testing.T) {
	// Not a hard SLA — just a tripwire against a degenerate hash: with 128
	// vnodes over 4 members, no member should own more than 2x its share.
	r := NewRing(members(4), 128)
	counts := map[string]int{}
	keys := testKeys(20000)
	for _, k := range keys {
		counts[r.Pick(k)]++
	}
	for m, c := range counts {
		frac := float64(c) / float64(len(keys))
		if frac > 0.5 {
			t.Fatalf("member %s owns %.1f%% of keys (degenerate ring)", m, frac*100)
		}
	}
	if len(counts) != 4 {
		t.Fatalf("only %d of 4 members own keys", len(counts))
	}
}
