package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"vicinity/internal/graph"
	"vicinity/internal/oraclefile"
	"vicinity/internal/u32map"
)

// Oracle file layout (container format: internal/oraclefile).
//
// A persisted oracle is self-contained: it embeds the graph (binary
// graph sub-format) alongside every built table, so a server restores
// serving state with array copies instead of re-running Build. The
// flat arena layout is what makes this near-memcpy: each section below
// is one contiguous array of the in-memory representation, and a loaded
// oracle round-trips bit-identically.
//
// Version 2 stores every fact once: the boundary ∂Γ(u) is the head of
// u's entry range (section 15 holds only its length), and neither
// vicinity nor landmark parents are written — paths derive from the
// distances. Version-1 files fail with oraclefile.ErrVersion.
const fileVersion = 2

// Section tags, in file order. Tags 13, 16, 17 and 21 held version 1's
// vicinity parents, boundary copies and landmark parents; they are not
// reused.
const (
	secMeta       = 1  // u64s: flags and build options
	secScope      = 2  // u32s: Options.Nodes (meaningful iff flagScope)
	secGraph      = 3  // raw: embedded binary graph
	secLandmarks  = 4  // u32s: sorted landmark ids
	secRadius     = 5  // u32s[n]
	secNearest    = 6  // u32s[n]
	secVicEntOff  = 7  // u32s[n]: per-node entry range start
	secVicEntLen  = 8  // u32s[n]: per-node entry count
	secVicSlotOff = 9  // u32s[n]: per-node slot range start
	secVicSlotLen = 10 // u32s[n]: per-node slot count (0 for empty)
	secKeys       = 11 // u32s: entry arena
	secDists      = 12 // u32s: entry arena
	secSlots      = 14 // u32s: slot arena
	secBoundLen   = 15 // u32s[n]: |∂Γ(u)|, the boundary prefix of u's entries
	secLPos       = 18 // u32s[|L|]: landmark table position, or ^0 for none
	secLDist      = 19 // u32s[built·n]: full-width landmark distances
	secLDist16    = 20 // u16s[built·n]: compact landmark distances
)

// Meta flags.
const (
	flagScope = 1 << iota
	flagNoLandmarkTables
	flagNoPathData // retired distance-only build option: never written, ignored on load
	flagCompactLandmarks
	flagScanSmaller // retired Options.ScanSmallerBoundary: never written, rejected on load
)

// meta field order within secMeta.
const (
	metaFlags = iota
	metaNodes
	metaAlpha
	metaSeed
	metaSampling
	metaFallback
	metaTableKind // retired Options.TableKind: written as 0 (the hash layout), any other value rejected on load
	metaWorkers
	metaMaxLandmarks // retired Options.MaxLandmarks: written as 0, ignored on load (the file stores the landmark set)
	metaLen
)

// ErrBadOracleFile wraps structural-validation failures during load
// (the checksum was fine but the encoded structure is inconsistent).
var ErrBadOracleFile = errors.New("core: invalid oracle file")

// WriteOracle serializes o to w in the oracle file format.
func WriteOracle(w io.Writer, o *Oracle) error {
	n := o.g.NumNodes()
	ow := oraclefile.NewWriter(w, fileVersion)

	meta := make([]uint64, metaLen)
	var flags uint64
	if o.opts.Nodes != nil {
		flags |= flagScope
	}
	if o.opts.DisableLandmarkTables {
		flags |= flagNoLandmarkTables
	}
	if o.opts.CompactLandmarkTables {
		flags |= flagCompactLandmarks
	}
	meta[metaFlags] = flags
	meta[metaNodes] = uint64(n)
	meta[metaAlpha] = math.Float64bits(o.opts.Alpha)
	meta[metaSeed] = o.opts.Seed
	meta[metaSampling] = uint64(o.opts.Sampling)
	meta[metaFallback] = uint64(o.opts.Fallback)
	// Workers is an execution knob, not a structural property: the build
	// is bit-identical for every worker count, and persisting the count
	// (defaulted to GOMAXPROCS) would make the file depend on the
	// machine that wrote it. Always stored as 0 = "default".
	meta[metaWorkers] = 0
	ow.U64s(secMeta, meta)
	ow.U32s(secScope, o.opts.Nodes)

	var gbuf bytes.Buffer
	if err := graph.WriteBinary(&gbuf, o.g); err != nil {
		return err
	}
	ow.Raw(secGraph, gbuf.Bytes())

	ow.U32s(secLandmarks, o.landmarks)
	ow.U32s(secRadius, o.radius)
	ow.U32s(secNearest, o.nearest)

	arena, entOff, entLen, slotOff, slotLen := o.flattenedVicinities()
	ow.U32s(secVicEntOff, entOff)
	ow.U32s(secVicEntLen, entLen)
	ow.U32s(secVicSlotOff, slotOff)
	ow.U32s(secVicSlotLen, slotLen)
	ow.U32s(secKeys, arena.Keys)
	ow.U32s(secDists, arena.Dists)
	ow.U32s(secSlots, arena.Slots)
	ow.U32s(secBoundLen, o.boundLen)

	lpos := make([]uint32, len(o.lpos))
	for i, p := range o.lpos {
		lpos[i] = uint32(p) // -1 round-trips as ^uint32(0)
	}
	ow.U32s(secLPos, lpos)
	ow.U32Rows(secLDist, o.ldist)
	ow.U16Rows(secLDist16, o.ldist16)

	return ow.Close()
}

// flattenedVicinities returns the vicinity storage as arena + per-node
// ranges. An arena without waste is returned directly; one with holes
// left by updates is compacted into a temporary so the file never
// carries dead ranges.
func (o *Oracle) flattenedVicinities() (arena *u32map.Arena, entOff, entLen, slotOff, slotLen []uint32) {
	n := len(o.radius)
	entOff = make([]uint32, n)
	entLen = make([]uint32, n)
	slotOff = make([]uint32, n)
	slotLen = make([]uint32, n)
	arena, flat := o.arena, o.vicFlat
	if o.entWaste+o.slotWaste > 0 {
		arena, flat = o.compactVicinityArena()
	}
	for u := 0; u < n; u++ {
		entOff[u], entLen[u], slotOff[u], slotLen[u] = flat[u].Ranges()
	}
	return arena, entOff, entLen, slotOff, slotLen
}

// ReadOracle deserializes an oracle written by WriteOracle, verifying
// the checksum and the structural invariants of every offset table.
// When the total byte size of the stream is known (a file), prefer
// readOracleSized: the hint lets sections allocate exactly once.
func ReadOracle(r io.Reader) (*Oracle, error) {
	return readOracleSized(r, -1)
}

func readOracleSized(r io.Reader, sizeHint int64) (*Oracle, error) {
	or, err := oraclefile.NewReader(r, sizeHint)
	if err != nil {
		return nil, err
	}
	if or.Version() != fileVersion {
		return nil, fmt.Errorf("%w: version %d", oraclefile.ErrVersion, or.Version())
	}
	meta, err := or.U64s(secMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != metaLen {
		return nil, fmt.Errorf("%w: meta has %d fields, want %d", ErrBadOracleFile, len(meta), metaLen)
	}
	flags := meta[metaFlags]
	workers := int(meta[metaWorkers])
	if workers <= 0 {
		// Files store 0 ("default"): pick this machine's parallelism for
		// the loaded oracle's update repairs.
		workers = runtime.GOMAXPROCS(0)
	}
	opts := Options{
		Alpha:                 math.Float64frombits(meta[metaAlpha]),
		Seed:                  meta[metaSeed],
		Sampling:              Sampling(meta[metaSampling]),
		Fallback:              Fallback(meta[metaFallback]),
		Workers:               workers,
		DisableLandmarkTables: flags&flagNoLandmarkTables != 0,
		CompactLandmarkTables: flags&flagCompactLandmarks != 0,
	}
	switch opts.Sampling {
	case SamplingPaper, SamplingUniform, SamplingDegree, SamplingTop:
	default:
		return nil, fmt.Errorf("%w: unknown sampling %d", ErrBadOracleFile, int(opts.Sampling))
	}
	switch opts.Fallback {
	case FallbackExact, FallbackEstimate, FallbackNone:
	default:
		return nil, fmt.Errorf("%w: unknown fallback %d", ErrBadOracleFile, int(opts.Fallback))
	}
	if k := meta[metaTableKind]; k != 0 {
		return nil, fmt.Errorf("%w: table kind %d (the retired Options.TableKind; only the hash layout loads)", ErrBadOracleFile, k)
	}
	if flags&flagScanSmaller != 0 {
		return nil, fmt.Errorf("%w: scan-smaller flag (the retired Options.ScanSmallerBoundary)", ErrBadOracleFile)
	}

	scope, err := or.U32s(secScope)
	if err != nil {
		return nil, err
	}
	if flags&flagScope != 0 {
		opts.Nodes = scope
	}
	gbytes, err := or.Raw(secGraph)
	if err != nil {
		return nil, err
	}
	g, err := graph.ReadBinary(bytes.NewReader(gbytes))
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if uint64(n) != meta[metaNodes] {
		return nil, fmt.Errorf("%w: graph has %d nodes, meta says %d", ErrBadOracleFile, n, meta[metaNodes])
	}
	for _, u := range opts.Nodes {
		if int(u) >= n {
			return nil, fmt.Errorf("%w: scope node %d out of range", ErrBadOracleFile, u)
		}
	}

	o := &Oracle{g: g, opts: opts}
	if o.landmarks, err = or.U32s(secLandmarks); err != nil {
		return nil, err
	}
	if o.radius, err = or.U32s(secRadius); err != nil {
		return nil, err
	}
	if o.nearest, err = or.U32s(secNearest); err != nil {
		return nil, err
	}
	entOff, err := or.U32s(secVicEntOff)
	if err != nil {
		return nil, err
	}
	entLen, err := or.U32s(secVicEntLen)
	if err != nil {
		return nil, err
	}
	slotOff, err := or.U32s(secVicSlotOff)
	if err != nil {
		return nil, err
	}
	slotLen, err := or.U32s(secVicSlotLen)
	if err != nil {
		return nil, err
	}
	arena := &u32map.Arena{}
	if arena.Keys, err = or.U32s(secKeys); err != nil {
		return nil, err
	}
	if arena.Dists, err = or.U32s(secDists); err != nil {
		return nil, err
	}
	if arena.Slots, err = or.U32s(secSlots); err != nil {
		return nil, err
	}
	if o.boundLen, err = or.U32s(secBoundLen); err != nil {
		return nil, err
	}
	lpos, err := or.U32s(secLPos)
	if err != nil {
		return nil, err
	}
	ldistF, err := or.U32s(secLDist)
	if err != nil {
		return nil, err
	}
	ldist16F, err := or.U16s(secLDist16)
	if err != nil {
		return nil, err
	}
	// Verify the checksum before trusting any of the data structurally.
	if err := or.Close(); err != nil {
		return nil, err
	}

	if err := o.restore(arena, entOff, entLen, slotOff, slotLen, lpos, ldistF, ldist16F); err != nil {
		return nil, err
	}
	return o, nil
}

// splitRows slices one loaded flat array into `rows` row views of
// length n each, sharing the backing array (no copy; updates replace
// whole rows, never splice them).
func splitRows[T uint16 | uint32](flat []T, rows, n int) [][]T {
	out := make([][]T, rows)
	for p := 0; p < rows; p++ {
		out[p] = flat[p*n : (p+1)*n : (p+1)*n]
	}
	return out
}

// restore validates the deserialized arrays and rebuilds the derived
// in-memory state (landmark index, per-node views, per-landmark table
// rows, workspace pool).
func (o *Oracle) restore(arena *u32map.Arena, entOff, entLen, slotOff, slotLen, lpos []uint32,
	ldistF []uint32, ldist16F []uint16) error {
	n := o.g.NumNodes()
	if len(o.radius) != n || len(o.nearest) != n {
		return fmt.Errorf("%w: radius/nearest length", ErrBadOracleFile)
	}
	if len(entOff) != n || len(entLen) != n || len(slotOff) != n || len(slotLen) != n || len(o.boundLen) != n {
		return fmt.Errorf("%w: vicinity range arrays", ErrBadOracleFile)
	}
	if len(arena.Dists) != len(arena.Keys) {
		return fmt.Errorf("%w: entry arena arrays disagree", ErrBadOracleFile)
	}

	// Landmarks: sorted, unique, in range.
	o.isL = make([]bool, n)
	o.lidx = make([]int32, n)
	for i := range o.lidx {
		o.lidx[i] = -1
	}
	for i, l := range o.landmarks {
		if int(l) >= n || (i > 0 && o.landmarks[i-1] >= l) {
			return fmt.Errorf("%w: landmark set", ErrBadOracleFile)
		}
		o.isL[l] = true
		o.lidx[l] = int32(i)
	}

	// Node-id-valued arrays are indexed with (nearest → lidx, vicinity
	// keys — boundary members included — → the batch engine's mark
	// array), so out-of-range values would panic at query time rather
	// than fail here.
	for u := 0; u < n; u++ {
		if v := o.nearest[u]; v != graph.NoNode && int(v) >= n {
			return fmt.Errorf("%w: nearest landmark of node %d out of range", ErrBadOracleFile, u)
		}
	}
	for _, k := range arena.Keys {
		if int(k) >= n {
			return fmt.Errorf("%w: vicinity key %d out of range", ErrBadOracleFile, k)
		}
	}

	// Vicinity ranges, boundary prefixes and slot contents. A boundary
	// longer than its entry range would slice past the node's entries
	// at query time.
	total := uint32(len(arena.Keys))
	totalSlots := uint32(len(arena.Slots))
	for u := 0; u < n; u++ {
		el, eo := entLen[u], entOff[u]
		if el > total || eo > total-el {
			return fmt.Errorf("%w: node %d entry range", ErrBadOracleFile, u)
		}
		if o.boundLen[u] > el {
			return fmt.Errorf("%w: node %d boundary length %d exceeds its %d entries", ErrBadOracleFile, u, o.boundLen[u], el)
		}
		sl, so := slotLen[u], slotOff[u]
		if sl > totalSlots || so > totalSlots-sl {
			return fmt.Errorf("%w: node %d slot range", ErrBadOracleFile, u)
		}
		if el > 0 {
			if int(sl) != u32map.IndexSize(int(el)) {
				return fmt.Errorf("%w: node %d slot count %d for %d entries", ErrBadOracleFile, u, sl, el)
			}
			if !u32map.ValidIndex(arena.Slots[so:so+sl], el) {
				return fmt.Errorf("%w: node %d slot index", ErrBadOracleFile, u)
			}
		} else if sl != 0 {
			return fmt.Errorf("%w: node %d has slots without entries", ErrBadOracleFile, u)
		}
	}

	o.arena = arena
	o.vicFlat = make([]u32map.Flat, n)
	for u := 0; u < n; u++ {
		if entLen[u] > 0 {
			o.vicFlat[u] = arena.Hash(entOff[u], entOff[u]+entLen[u], slotOff[u], slotOff[u]+slotLen[u])
			o.covered++
		}
	}

	// Landmark tables: positions dense in [0, built).
	if len(lpos) != len(o.landmarks) {
		return fmt.Errorf("%w: landmark position array", ErrBadOracleFile)
	}
	o.lpos = make([]int32, len(lpos))
	built := 0
	for i, p := range lpos {
		o.lpos[i] = int32(p)
		if o.lpos[i] < -1 {
			return fmt.Errorf("%w: landmark position %d", ErrBadOracleFile, int32(p))
		}
		if o.lpos[i] >= 0 {
			built++
		}
	}
	seen := make([]bool, built)
	for _, p := range o.lpos {
		if p < 0 {
			continue
		}
		if int(p) >= built || seen[p] {
			return fmt.Errorf("%w: landmark positions not dense", ErrBadOracleFile)
		}
		seen[p] = true
	}
	want := uint64(built) * uint64(n)
	if o.opts.CompactLandmarkTables {
		if uint64(len(ldist16F)) != want || len(ldistF) != 0 {
			return fmt.Errorf("%w: compact landmark tables", ErrBadOracleFile)
		}
	} else {
		if uint64(len(ldistF)) != want || len(ldist16F) != 0 {
			return fmt.Errorf("%w: landmark tables", ErrBadOracleFile)
		}
	}
	// Split the flat sections into per-landmark rows (views into the
	// loaded arrays, no copies); empty sections stay nil so accessors
	// and Memory() treat loaded oracles exactly like built ones.
	if len(ldistF) > 0 {
		o.ldist = splitRows(ldistF, built, n)
	}
	if len(ldist16F) > 0 {
		o.ldist16 = splitRows(ldist16F, built, n)
	}

	o.fbPool = newWorkspacePool(o.g)
	o.kpPool = newKPathsPool(o.g)
	o.chain = &updateChain{}
	return nil
}

// SaveOracleFile writes o to path in the oracle file format.
func SaveOracleFile(path string, o *Oracle) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteOracle(f, o); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadOracleFile reads an oracle written by SaveOracleFile.
func LoadOracleFile(path string) (*Oracle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sizeHint := int64(-1)
	if info, err := f.Stat(); err == nil {
		sizeHint = info.Size()
	}
	o, err := readOracleSized(f, sizeHint)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return o, nil
}
