package accuracy

import (
	"math"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.2f, want %.2f (±%.2f)", what, got, want, tol)
	}
}

func TestTable3Anchors(t *testing.T) {
	// Table 3: Top-5 accuracy on kernel pattern pruning only.
	approx(t, Baseline("VGG", "imagenet"), 91.7, 0.01, "VGG baseline")
	approx(t, PatternOnly("VGG", "imagenet", 6), 92.1, 0.05, "VGG 6-pattern")
	approx(t, PatternOnly("VGG", "imagenet", 8), 92.3, 0.05, "VGG 8-pattern")
	approx(t, PatternOnly("VGG", "imagenet", 12), 92.4, 0.05, "VGG 12-pattern")
	approx(t, Baseline("RNT", "imagenet"), 92.7, 0.01, "RNT baseline")
	approx(t, PatternOnly("RNT", "imagenet", 6), 92.7, 0.05, "RNT 6-pattern")
	approx(t, PatternOnly("RNT", "imagenet", 8), 92.8, 0.05, "RNT 8-pattern")
	approx(t, PatternOnly("RNT", "imagenet", 12), 93.0, 0.05, "RNT 12-pattern")
}

func TestTable5Anchors(t *testing.T) {
	// Table 5: joint 8 patterns + 3.6x connectivity.
	approx(t, Joint("VGG", "imagenet", 8, 3.6), 91.6, 0.05, "VGG joint")
	approx(t, Loss("VGG", "imagenet", 8, 3.6), 0.1, 0.05, "VGG loss")
	approx(t, Joint("RNT", "imagenet", 8, 3.6), 92.5, 0.05, "RNT joint")
	approx(t, Loss("RNT", "imagenet", 8, 3.6), 0.2, 0.05, "RNT loss")
	approx(t, Joint("MBNT", "imagenet", 8, 3.6), 90.3, 0.05, "MBNT joint")
	// CIFAR: pruning *improves* accuracy (negative loss in Table 5).
	approx(t, Joint("VGG", "cifar10", 8, 3.6), 93.9, 0.05, "VGG cifar joint")
	approx(t, Loss("VGG", "cifar10", 8, 3.6), -0.4, 0.05, "VGG cifar loss")
	approx(t, Joint("RNT", "cifar10", 8, 3.6), 95.6, 0.05, "RNT cifar joint")
	approx(t, Joint("MBNT", "cifar10", 8, 3.6), 94.6, 0.05, "MBNT cifar joint")
}

func TestTable7Anchors(t *testing.T) {
	// Table 7: VGG/ImageNet with 3.6x connectivity across pattern counts.
	approx(t, Joint("VGG", "imagenet", 6, 3.6), 91.4, 0.05, "VGG 6-pat joint")
	approx(t, Joint("VGG", "imagenet", 8, 3.6), 91.6, 0.05, "VGG 8-pat joint")
	approx(t, Joint("VGG", "imagenet", 12, 3.6), 91.7, 0.05, "VGG 12-pat joint")
}

func TestMonotonicity(t *testing.T) {
	// More patterns never hurt.
	for _, net := range []string{"VGG", "RNT", "MBNT"} {
		prev := PatternOnly(net, "imagenet", 2)
		for _, k := range []int{4, 6, 8, 12, 20} {
			cur := PatternOnly(net, "imagenet", k)
			if cur < prev-1e-9 {
				t.Errorf("%s: accuracy decreased from k-1 to k=%d", net, k)
			}
			prev = cur
		}
	}
	// Higher connectivity rates cost monotonically more.
	prev := Joint("VGG", "imagenet", 8, 1)
	for _, r := range []float64{2, 3.6, 5.3, 8, 18} {
		cur := Joint("VGG", "imagenet", 8, r)
		if cur > prev+1e-9 {
			t.Errorf("connectivity rate %.1f improved accuracy", r)
		}
		prev = cur
	}
}

func TestTooFewPatternsHurt(t *testing.T) {
	for _, net := range []string{"VGG", "RNT", "MBNT"} {
		if PatternOnly(net, "imagenet", 1) >= Baseline(net, "imagenet") {
			t.Errorf("%s: 1 pattern should lose accuracy", net)
		}
	}
}

func TestStructuredWorseThanPattern(t *testing.T) {
	// Section 2.4: structured pruning at 3.8x loses 1.0% on VGG, while the
	// pattern scheme at a *higher* total rate (8x) loses only 0.1%.
	structAcc := Structured("VGG", "imagenet", 3.8)
	approx(t, structAcc, 90.7, 0.05, "VGG structured 3.8x")
	jointAcc := Joint("VGG", "imagenet", 8, 3.6)
	if jointAcc <= structAcc {
		t.Errorf("pattern (%.2f) must beat structured (%.2f)", jointAcc, structAcc)
	}
}

func TestNonStructuredNearLossless(t *testing.T) {
	// ADMM-NN non-structured: ~no loss at 8x.
	acc := NonStructured("VGG", "imagenet", 8)
	if acc < 91.4 {
		t.Errorf("non-structured 8x = %.2f, want >= 91.4", acc)
	}
	// Ours should be within noise of ADMM-NN at the same rate (Table 4's
	// "close to non-structured" claim).
	ours := Joint("VGG", "imagenet", 8, 3.6)
	if math.Abs(ours-acc) > 1.0 {
		t.Errorf("ours %.2f vs non-structured %.2f differ by > 1.0", ours, acc)
	}
}

func TestUnknownNetworkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Baseline("AlexNet", "imagenet")
}

func TestCurveInterpolationAndClamping(t *testing.T) {
	c := anchorCurve{1: 0, 3: 2}
	if got := c.at(2); got != 1 {
		t.Fatalf("interp = %v, want 1", got)
	}
	if got := c.at(0); got != 0 {
		t.Fatalf("clamp low = %v", got)
	}
	if got := c.at(10); got != 2 {
		t.Fatalf("clamp high = %v", got)
	}
}
