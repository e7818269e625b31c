package execgraph

// Trust-boundary tests for FromFile's name bookkeeping. Every section of an
// artifact is keyed by layer name, so a crafted file can carry two records
// (or two topology layers) with one name; each is well-formed on its own and
// survives modelfile.Read. Loaded into name-keyed maps, the later one would
// silently shadow the earlier — the file would serve, with parameters other
// than the ones a reviewer reading its first record saw.

import (
	"bytes"
	"strings"
	"testing"

	"patdnn/internal/modelfile"
)

func TestFromFileRejectsDuplicateNames(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		dup        func(f *modelfile.File)
	}{
		{"conv-record", "duplicate", func(f *modelfile.File) { f.Layers = append(f.Layers, f.Layers[0]) }},
		{"dense-record", "duplicate", func(f *modelfile.File) { f.Dense = append(f.Dense, f.Dense[0]) }},
		{"bn-record", "duplicate", func(f *modelfile.File) { f.BNs = append(f.BNs, f.BNs[0]) }},
		{"topology-layer", "twice", func(f *modelfile.File) {
			f.Net.Layers = append(f.Net.Layers, f.Net.Layers[len(f.Net.Layers)-1])
		}},
	} {
		f := bottleneckFile(t)
		tc.dup(f)
		var buf bytes.Buffer
		if err := modelfile.Write(&buf, f); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mf, err := modelfile.Read(&buf)
		if err != nil {
			t.Fatalf("%s: the crafted file must survive the reader for the duplicate to reach FromFile: %v", tc.name, err)
		}
		if _, _, err := FromFile("btl", mf); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: FromFile = %v, want a load error naming the duplicate", tc.name, err)
		}
	}
}

// TestFromFileRequiresTopology: modelfile.Read never returns a File without
// a topology, but FromFile also takes Files built in memory.
func TestFromFileRequiresTopology(t *testing.T) {
	f := bottleneckFile(t)
	f.Net = nil
	if _, _, err := FromFile("btl", f); err == nil || !strings.Contains(err.Error(), "no topology") {
		t.Fatalf("FromFile = %v, want the missing-topology error", err)
	}
}
