package cpu

import "testing"

// The probe must agree with itself: Arch names exactly the flag that is set.
func TestArchConsistent(t *testing.T) {
	switch Arch() {
	case "avx2":
		if !HasAVX2FMA {
			t.Fatal("Arch avx2 without HasAVX2FMA")
		}
	case "generic":
		if HasAVX2FMA {
			t.Fatal("Arch generic with HasAVX2FMA set")
		}
	default:
		t.Fatalf("unknown Arch %q", Arch())
	}
}
