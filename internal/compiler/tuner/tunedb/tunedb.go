// Package tunedb persists auto-tuning decisions across processes: a versioned
// JSON sidecar (conventionally tuning.json next to a registry's .patdnn
// artifacts) mapping (layer shape, pattern-set signature, architecture,
// optimization level) to the execution configuration some earlier compile
// chose — whether by heuristic, compile-time GA search, or the serving
// engine's measured background tuner. A compile that hits the DB does zero
// search work, which is what makes the registry's lazy recompile-after-
// eviction path and warm server restarts cheap.
//
// The reader is checked the way the modelfile reader is: a corrupt file or a
// corrupt entry is quarantined (dropped and counted, visible in Stats) rather
// than crashing or poisoning the serving path — the DB is an accelerator, and
// losing it must never lose the ability to serve.
package tunedb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"patdnn/internal/compiler/lr"
	"patdnn/internal/cpu"
	"patdnn/internal/pruned"
)

// FormatVersion is the sidecar file format version. A file with a different
// version is quarantined whole (treated as empty and rewritten on Save); the
// schema is not negotiated across versions.
const FormatVersion = 1

// Entry sources, in increasing order of trust: a heuristic guess, a
// compile-time search under the analytic cost model, and a background search
// under measured wall-clock evaluation.
const (
	SourceHeuristic = "heuristic"
	SourceSearch    = "search"
	SourceMeasured  = "measured"
)

// Key identifies one tuning decision: the pruned layer's geometry and
// sparsity summary, a signature over its pattern set and assignment, the
// architecture the decision was made on, and the codegen level it applies to.
// Two layers with equal keys execute identically, so a decision transfers
// between them (across models, processes, and restarts).
type Key struct {
	Arch      string `json:"arch"`
	Level     string `json:"level"`
	OutC      int    `json:"out_c"`
	InC       int    `json:"in_c"`
	KH        int    `json:"kh"`
	KW        int    `json:"kw"`
	InH       int    `json:"in_h"`
	InW       int    `json:"in_w"`
	Stride    int    `json:"stride"`
	Pad       int    `json:"pad"`
	Depthwise bool   `json:"depthwise,omitempty"`
	// NNZ and MaxFilterNNZ summarize the sparsity the tuner sized for; both
	// are derivable from the signature's inputs but kept explicit so the
	// sidecar stays human-auditable.
	NNZ          int `json:"nnz"`
	MaxFilterNNZ int `json:"max_filter_nnz"`
	// PatternSig is an FNV-1a hash over the pattern set's masks and the
	// per-kernel pattern assignment — the full sparsity structure.
	PatternSig string `json:"pattern_sig"`
}

// String is the canonical map spelling of the key.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s/c%dx%d k%dx%d in%dx%d s%d p%d dw%t nnz%d max%d %s",
		k.Arch, k.Level, k.OutC, k.InC, k.KH, k.KW, k.InH, k.InW,
		k.Stride, k.Pad, k.Depthwise, k.NNZ, k.MaxFilterNNZ, k.PatternSig)
}

// valid rejects keys no compile could have produced (the per-entry quarantine
// check on load).
func (k Key) valid() bool {
	return k.Arch != "" && k.Level != "" && k.PatternSig != "" &&
		k.OutC >= 1 && k.InC >= 1 && k.KH >= 1 && k.KW >= 1 &&
		k.InH >= 1 && k.InW >= 1 && k.Stride >= 1 && k.Pad >= 0 &&
		k.NNZ >= 0 && k.MaxFilterNNZ >= 0
}

// ConvKey derives the DB key for one pattern-pruned conv at a codegen level
// tag, on the running architecture. Arch carries both the instruction set and
// the detected SIMD microkernel tier ("amd64/avx2", or "amd64/generic"
// under -tags noasm), so a tuning measured against the vector
// kernels never transfers to a scalar build of the same GOARCH, or vice versa.
func ConvKey(c *pruned.Conv, levelTag string) Key {
	h := fnv.New64a()
	var buf [8]byte
	wr := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wr(uint64(len(c.Set)))
	for _, p := range c.Set {
		wr(uint64(p.Mask))
	}
	for _, id := range c.IDs {
		wr(uint64(id))
	}
	return Key{
		Arch: runtime.GOARCH + "/" + cpu.Arch(), Level: levelTag,
		OutC: c.OutC, InC: c.InC, KH: c.KH, KW: c.KW,
		InH: c.InH, InW: c.InW, Stride: c.Stride, Pad: c.Pad,
		Depthwise: c.Depthwise,
		NNZ:       c.NNZ(), MaxFilterNNZ: c.MaxFilterNNZ(),
		PatternSig: fmt.Sprintf("%016x", h.Sum64()),
	}
}

// Entry is one persisted tuning decision.
type Entry struct {
	Config lr.Tuning `json:"config"`
	// CostMs is the cost the decision won with: measured milliseconds for
	// SourceMeasured, the analytic model's unitless cost for SourceSearch,
	// zero for heuristics.
	CostMs  float64   `json:"cost_ms,omitempty"`
	Source  string    `json:"source"`
	Updated time.Time `json:"updated,omitzero"`
}

// valid is the per-entry quarantine check: the stored configuration must be
// executable and the source known.
func (e Entry) valid() bool {
	switch e.Source {
	case SourceHeuristic, SourceSearch, SourceMeasured:
	default:
		return false
	}
	if !e.Config.Permute.Valid() || e.Config.Threads < 1 {
		return false
	}
	for _, v := range e.Config.Tile {
		if v < 1 {
			return false
		}
	}
	for _, v := range e.Config.Unroll {
		if v < 1 {
			return false
		}
	}
	return !(e.CostMs < 0) && e.CostMs == e.CostMs // no negatives, no NaN
}

// record pairs a key with its entry in the sidecar file (self-describing, so
// a reader never has to parse Key.String back apart).
type record struct {
	Key   Key   `json:"key"`
	Entry Entry `json:"entry"`
}

type fileFormat struct {
	Version int      `json:"version"`
	Entries []record `json:"entries"`
}

// Stats snapshots the DB counters. All counters are monotonic for the DB's
// lifetime.
type Stats struct {
	Path    string `json:"path,omitempty"`
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Records uint64 `json:"records"`
	// Quarantined counts entries the checked reader dropped at load time
	// (invalid key or configuration, duplicate key).
	Quarantined uint64 `json:"quarantined,omitempty"`
	// LoadError reports a whole-file quarantine: the sidecar existed but was
	// unreadable or corrupt, so the DB started empty (and Save rewrites it).
	LoadError string `json:"load_error,omitempty"`
}

// DB is a persistent tuning store. Safe for concurrent use. A DB with an
// empty path is purely in-memory (Save is a no-op): the shape the serving
// engine uses when background tuning is on but no sidecar is configured.
type DB struct {
	mu          sync.Mutex
	path        string
	entries     map[string]record
	dirty       bool
	hits        uint64
	misses      uint64
	records     uint64
	quarantined uint64
	loadErr     string
}

// Open loads the sidecar at path ("" for in-memory). Open never fails: a
// missing file is an empty DB, and a corrupt one is quarantined — the DB
// starts empty with the problem recorded in Stats.LoadError — because losing
// the tuning cache must never take serving down with it.
func Open(path string) *DB {
	db := &DB{path: path, entries: make(map[string]record)}
	if path == "" {
		return db
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			db.loadErr = err.Error()
		}
		return db
	}
	var f fileFormat
	if err := json.Unmarshal(data, &f); err != nil {
		db.loadErr = fmt.Sprintf("tunedb: %s: %v", path, err)
		return db
	}
	if f.Version != FormatVersion {
		db.loadErr = fmt.Sprintf("tunedb: %s: format version %d, want %d", path, f.Version, FormatVersion)
		return db
	}
	for _, r := range f.Entries {
		ks := r.Key.String()
		if _, dup := db.entries[ks]; dup || !r.Key.valid() || !r.Entry.valid() {
			db.quarantined++
			continue
		}
		db.entries[ks] = r
	}
	return db
}

// Path returns the sidecar path ("" for in-memory DBs).
func (db *DB) Path() string { return db.path }

// Len returns the number of entries.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.entries)
}

// Lookup returns the stored decision for k, counting a hit or a miss.
func (db *DB) Lookup(k Key) (Entry, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, ok := db.entries[k.String()]
	if ok {
		db.hits++
		return r.Entry, true
	}
	db.misses++
	return Entry{}, false
}

// Record stores a decision for k, overwriting any previous one, except that a
// measured decision is never downgraded by a heuristic or analytic-search one
// — measurement outranks modeling, and a recompile that hits the DB must not
// erase what the background tuner learned.
func (db *DB) Record(k Key, e Entry) {
	db.mu.Lock()
	defer db.mu.Unlock()
	ks := k.String()
	if old, ok := db.entries[ks]; ok &&
		old.Entry.Source == SourceMeasured && e.Source != SourceMeasured {
		return
	}
	e.Updated = time.Now().UTC()
	db.entries[ks] = record{Key: k, Entry: e}
	db.records++
	db.dirty = true
}

// Save writes the sidecar atomically (temp file + rename) if anything changed
// since the last save. In-memory DBs and clean DBs are no-ops.
func (db *DB) Save() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.path == "" || !db.dirty {
		return nil
	}
	f := fileFormat{Version: FormatVersion, Entries: make([]record, 0, len(db.entries))}
	keys := make([]string, 0, len(db.entries))
	for ks := range db.entries {
		keys = append(keys, ks)
	}
	sort.Strings(keys)
	for _, ks := range keys {
		f.Entries = append(f.Entries, db.entries[ks])
	}
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return fmt.Errorf("tunedb: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(db.path), ".tunedb-*")
	if err != nil {
		return fmt.Errorf("tunedb: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("tunedb: write %s: %w", db.path, errors2(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), db.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("tunedb: %w", err)
	}
	db.dirty = false
	return nil
}

func errors2(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// Stats snapshots the counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return Stats{
		Path: db.path, Entries: len(db.entries),
		Hits: db.hits, Misses: db.misses, Records: db.records,
		Quarantined: db.quarantined, LoadError: db.loadErr,
	}
}
