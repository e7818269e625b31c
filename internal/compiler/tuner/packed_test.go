package tuner

import "testing"

func TestPackedTileSmallMapSingleTile(t *testing.T) {
	// A 28×28 map fits L1 whole: no tiling.
	if got := PackedTile(28, 28, 30, 150, 1, 4); got != 28 {
		t.Fatalf("PackedTile(28x28) = %d, want 28 (single tile)", got)
	}
}

func TestPackedTileLargeMapShrinks(t *testing.T) {
	got := PackedTile(224, 224, 226, 150, 1, 4)
	if got >= 224 {
		t.Fatalf("PackedTile(224x224) = %d, want a real tile < 224", got)
	}
	if got < 1 {
		t.Fatalf("PackedTile(224x224) = %d, want >= 1", got)
	}
	// The chosen tile's working set must actually fit.
	work := 4 * (got*224 + (got+2)*226)
	if work > packedL1Bytes {
		t.Fatalf("chosen tile %d has working set %dB > L1 %dB", got, work, packedL1Bytes)
	}
}

func TestPackedTileStrideCountsInputRows(t *testing.T) {
	// At stride 2 a tile of output rows touches ~2x the input rows, so the
	// chosen tile can only shrink relative to stride 1.
	s1 := PackedTile(112, 112, 226, 150, 1, 4)
	s2 := PackedTile(112, 112, 226, 150, 2, 4)
	if s2 > s1 {
		t.Fatalf("stride-2 tile %d > stride-1 tile %d", s2, s1)
	}
	work := 4 * (s2*112 + ((s2-1)*2+3)*226)
	if work+4*150 > packedL1Bytes {
		t.Fatalf("stride-2 tile %d working set %dB exceeds L1 %dB", s2, work, packedL1Bytes)
	}
}

func TestPackedTuningCarriesTile(t *testing.T) {
	tn := PackedTuning(56, 56, 58, 140, 1, 4)
	if tn.Tile[1] != PackedTile(56, 56, 58, 140, 1, 4) {
		t.Fatalf("PackedTuning tile %d != PackedTile %d", tn.Tile[1], PackedTile(56, 56, 58, 140, 1, 4))
	}
}

func TestPackedTileQ8AllowsTallerTiles(t *testing.T) {
	// PackedQ8 streams 1 byte per weight instead of 4: a heavy filter that
	// crowds the FP32 tile budget leaves room for a taller tile — never a
	// shorter one — when quantized.
	fp32 := PackedTile(224, 224, 226, 6000, 1, 4)
	q8 := PackedTile(224, 224, 226, 6000, 1, 1)
	if q8 < fp32 {
		t.Fatalf("q8 tile %d shorter than fp32 tile %d", q8, fp32)
	}
	if q8 == fp32 {
		t.Fatalf("q8 tile %d did not grow past fp32 tile %d despite 18KB freed", q8, fp32)
	}
	work := 4*(q8*224+((q8-1)+3)*226) + 1*6000
	if work > packedL1Bytes {
		t.Fatalf("q8 tile %d working set %dB exceeds L1 %dB", q8, work, packedL1Bytes)
	}
}
