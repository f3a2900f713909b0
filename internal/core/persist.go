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
// Version 6 stores every fact in about the bits its data needs, and no
// index: each vicinity is one coded table (see u32map.AppendTable) of
// runs sorted by node id, cut into blocks whose gaps are bit-packed at
// the block's own width, and a loader decodes every run and checks its
// structure before trusting it (u32map.Flat.Check). Every offset inside
// a coded table is local to it, so the tables section is the arena
// verbatim. The boundary ∂Γ(u) is the last run of u's table (section 15
// holds only its length). An unweighted table keeps its members in BFS
// level order, one run per level, and stores its owner (level 0) in its
// header and no distances; a weighted one splits its members into its
// interior and its boundary tail and stores one distance per member
// (section 12). Sections 27-29 hold the per-node table ranges and the
// tables, sections 7-8 each node's distance offset (0 on unweighted
// oracles) and member count. Each landmark row is stored in its form
// (see lrow): section 25 gives every row's bits per node k, 2 or 4 for
// a coded row and 32 for a wide one; section 31 holds every row's code
// words, ⌈n·k/32⌉ each, padded with the escape code; sections 32 and 33
// give every row's base and exception count (0 on a wide row), and
// sections 34 and 35 the exception nodes and distances, row after row.
// Neither vicinity nor landmark parents are written — paths derive from
// the distances. Files of versions 1 to 5 fail with
// oraclefile.ErrVersion.
const fileVersion = 6

// Section tags, in file order. Tags 13, 16, 17 and 21 held version 1's
// vicinity parents, boundary copies and landmark parents, tag 20
// version 2's uint16 landmark rows, tags 9, 10 and 14 version 3's hash
// slot index, tags 11, 22-24 and 26 version 4's plain key arena, run
// starts and one-byte landmark rows, and tags 19 and 30 version 5's
// wide and four-bit rows; they are not reused. The sections added in
// version 3 and later store byte counts in their headers.
const (
	secMeta      = 1  // u64s: flags and build options
	secScope     = 2  // u32s: Options.Nodes (meaningful iff flagScope)
	secGraph     = 3  // raw: embedded binary graph
	secLandmarks = 4  // u32s: sorted landmark ids
	secRadius    = 5  // u32s[n]
	secNearest   = 6  // u32s[n]
	secVicEntOff = 7  // u32s[n]: per-node distance range start (0 on unweighted oracles)
	secVicEntLen = 8  // u32s[n]: per-node member count
	secDists     = 12 // u32s: per-entry distances (weighted oracles only)
	secBoundLen  = 15 // u32s[n]: |∂Γ(u)|, the last run of u's table
	secLPos      = 18 // u32s[|L|]: landmark table position, or ^0 for none
	secLWidth    = 25 // bytes[built]: each row's bits per node, 2, 4 or 32
	secVicTblOff = 27 // u32s[n]: per-node coded table start
	secVicTblLen = 28 // u32s[n]: per-node coded table length in words
	secTables    = 29 // u32s: the coded tables
	secLCodes    = 31 // u32s: the landmark rows' code words, ⌈n·k/32⌉ each, in row order
	secLBase     = 32 // u32s[built]: each row's base (0 on a wide row)
	secLExcLen   = 33 // u32s[built]: each row's exception count (0 on a wide row)
	secLExcNode  = 34 // u32s: the exception nodes, row after row
	secLExcDist  = 35 // u32s: the exception distances, row after row
)

// Meta flags.
const (
	flagScope = 1 << iota
	flagNoLandmarkTables
	flagNoPathData  // retired distance-only build option: never written, ignored on load
	_               // version 2's uint16 landmark rows; version 3 stores each row's width
	flagScanSmaller // retired Options.ScanSmallerBoundary: never written, rejected on load
)

// meta field order within secMeta.
const (
	metaFlags = iota
	metaNodes
	metaAlpha
	metaSeed
	metaSampling
	metaFallback  // retired Options.Fallback: written as 0, ignored on load (each request's Policy selects the fallback)
	metaTableKind // retired Options.TableKind: written as 0 (the one layout), any other value rejected on load
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
	meta[metaFlags] = flags
	meta[metaNodes] = uint64(n)
	meta[metaAlpha] = math.Float64bits(o.opts.Alpha)
	meta[metaSeed] = o.opts.Seed
	meta[metaSampling] = uint64(o.opts.Sampling)
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

	arena, flat := o.flattenedVicinities()
	cols := make([][]uint32, 4) // tblOff, tblLen, entOff, entLen
	for i := range cols {
		cols[i] = make([]uint32, n)
	}
	for u, f := range flat {
		r := f.Range()
		cols[0][u], cols[1][u], cols[2][u], cols[3][u] = r.WOff, r.WLen, r.EOff, r.ELen
	}
	ow.U32s(secVicEntOff, cols[2])
	ow.U32s(secVicEntLen, cols[3])
	if !arena.Leveled {
		ow.U32s(secDists, arena.Dists)
	}
	ow.U32s(secBoundLen, o.boundLen)

	lpos := make([]uint32, len(o.lpos))
	for i, p := range o.lpos {
		lpos[i] = uint32(p) // -1 round-trips as ^uint32(0)
	}
	ow.U32s(secLPos, lpos)
	widths := make([]byte, len(o.lrows))
	bases := make([]uint32, len(o.lrows))
	xlens := make([]uint32, len(o.lrows))
	codes := make([][]uint32, len(o.lrows))
	var xnode, xdist []uint32
	for p, row := range o.lrows {
		widths[p], bases[p], xlens[p], codes[p] = row.k, row.base, uint32(len(row.xnode)), row.codes
		xnode = append(xnode, row.xnode...)
		xdist = append(xdist, row.xdist...)
	}
	ow.Raw(secLWidth, widths)
	ow.U32sBytes(secVicTblOff, cols[0])
	ow.U32sBytes(secVicTblLen, cols[1])
	ow.U32sBytes(secTables, arena.Words)
	ow.U32RowsBytes(secLCodes, codes)
	ow.U32sBytes(secLBase, bases)
	ow.U32sBytes(secLExcLen, xlens)
	ow.U32sBytes(secLExcNode, xnode)
	ow.U32sBytes(secLExcDist, xdist)

	return ow.Close()
}

// flattenedVicinities returns the vicinity storage as an arena and the
// per-node views into it. An arena without waste is returned directly;
// one with holes left by updates is compacted into a temporary so the
// file never carries dead ranges.
func (o *Oracle) flattenedVicinities() (*u32map.Arena, []u32map.Flat) {
	if o.waste > 0 {
		return o.compactVicinityArena()
	}
	return o.arena, o.vicFlat
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
		Workers:               workers,
		DisableLandmarkTables: flags&flagNoLandmarkTables != 0,
	}
	switch opts.Sampling {
	case SamplingPaper, SamplingUniform, SamplingDegree, SamplingTop:
	default:
		return nil, fmt.Errorf("%w: unknown sampling %d", ErrBadOracleFile, int(opts.Sampling))
	}
	if k := meta[metaTableKind]; k != 0 {
		return nil, fmt.Errorf("%w: table kind %d (the retired Options.TableKind; only kind 0 loads)", ErrBadOracleFile, k)
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
	arena := &u32map.Arena{Leveled: !g.Weighted()}
	if !arena.Leveled {
		if arena.Dists, err = or.U32s(secDists); err != nil {
			return nil, err
		}
	}
	if o.boundLen, err = or.U32s(secBoundLen); err != nil {
		return nil, err
	}
	lpos, err := or.U32s(secLPos)
	if err != nil {
		return nil, err
	}
	widths, err := or.Raw(secLWidth)
	if err != nil {
		return nil, err
	}
	tblOff, err := or.U32sBytes(secVicTblOff)
	if err != nil {
		return nil, err
	}
	tblLen, err := or.U32sBytes(secVicTblLen)
	if err != nil {
		return nil, err
	}
	if arena.Words, err = or.U32sBytes(secTables); err != nil {
		return nil, err
	}
	rows := rowSections{widths: widths}
	if rows.codes, err = or.U32sBytes(secLCodes); err != nil {
		return nil, err
	}
	if rows.bases, err = or.U32sBytes(secLBase); err != nil {
		return nil, err
	}
	if rows.xlens, err = or.U32sBytes(secLExcLen); err != nil {
		return nil, err
	}
	if rows.xnode, err = or.U32sBytes(secLExcNode); err != nil {
		return nil, err
	}
	if rows.xdist, err = or.U32sBytes(secLExcDist); err != nil {
		return nil, err
	}
	// Verify the checksum before trusting any of the data structurally.
	if err := or.Close(); err != nil {
		return nil, err
	}

	ranges := [][]uint32{tblOff, tblLen, entOff, entLen}
	if err := o.restore(arena, ranges, lpos, rows); err != nil {
		return nil, err
	}
	return o, nil
}

// rowSections holds the loaded landmark-row sections: per row its bits
// per node, base and exception count, and the code words and the
// exceptions of every row, concatenated in row order.
type rowSections struct {
	widths              []byte
	bases, xlens        []uint32
	codes, xnode, xdist []uint32
}

// restore validates the deserialized arrays and rebuilds the derived
// in-memory state (landmark index, per-node views, per-landmark table
// rows, workspace pool). ranges holds the per-node columns tblOff,
// tblLen, entOff and entLen.
func (o *Oracle) restore(arena *u32map.Arena, ranges [][]uint32, lpos []uint32, rows rowSections) error {
	n := o.g.NumNodes()
	if len(o.radius) != n || len(o.nearest) != n {
		return fmt.Errorf("%w: radius/nearest length", ErrBadOracleFile)
	}
	for _, col := range ranges {
		if len(col) != n {
			return fmt.Errorf("%w: vicinity range arrays", ErrBadOracleFile)
		}
	}
	if len(o.boundLen) != n {
		return fmt.Errorf("%w: boundary length array", ErrBadOracleFile)
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
	// than fail here; the table check below bounds every key.
	for u := 0; u < n; u++ {
		if v := o.nearest[u]; v != graph.NoNode && int(v) >= n {
			return fmt.Errorf("%w: nearest landmark of node %d out of range", ErrBadOracleFile, u)
		}
	}

	// Vicinity ranges, coded tables, boundary runs. Every table is
	// decoded in full: a run out of order would make lookups and
	// intersections miss members silently, and a block record pointing
	// past its table would make them read another table's words.
	o.arena = arena
	o.vicFlat = make([]u32map.Flat, n)
	for u := 0; u < n; u++ {
		r := u32map.Range{
			WOff: ranges[0][u], WLen: ranges[1][u],
			EOff: ranges[2][u], ELen: ranges[3][u],
		}
		el := r.ELen
		if !within(r.WOff, r.WLen, len(arena.Words)) {
			return fmt.Errorf("%w: node %d table range", ErrBadOracleFile, u)
		}
		if arena.Leveled && r.EOff != 0 || !arena.Leveled && !within(r.EOff, el, len(arena.Dists)) {
			return fmt.Errorf("%w: node %d distance range", ErrBadOracleFile, u)
		}
		if o.boundLen[u] > el {
			return fmt.Errorf("%w: node %d boundary length %d exceeds its %d entries", ErrBadOracleFile, u, o.boundLen[u], el)
		}
		if el == 0 {
			if r.WLen != 0 {
				return fmt.Errorf("%w: node %d has a table without entries", ErrBadOracleFile, u)
			}
			continue
		}
		f := arena.View(r)
		if err := f.Check(uint32(n)); err != nil {
			return fmt.Errorf("%w: node %d: %v", ErrBadOracleFile, u, err)
		}
		if arena.Leveled {
			if f.Owner() != uint32(u) {
				return fmt.Errorf("%w: node %d vicinity does not start with its owner", ErrBadOracleFile, u)
			}
			if err := o.checkLevels(uint32(u), f); err != nil {
				return err
			}
		} else if err := o.checkTail(uint32(u), f); err != nil {
			return err
		}
		o.vicFlat[u] = f
		o.covered++
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
	if err := o.restoreRows(rows, built); err != nil {
		return err
	}

	o.fbPool = newWorkspacePool(o.g)
	o.kpPool = newKPathsPool(o.g)
	o.chain = &updateChain{}
	return nil
}

// restoreRows validates the loaded landmark rows and installs them as
// views into the loaded arrays, no copies; updates replace whole rows
// and exception lists, never splice them. The sections must hold
// exactly the code words and exceptions the rows' widths and counts
// name.
func (o *Oracle) restoreRows(rows rowSections, built int) error {
	n := o.g.NumNodes()
	if len(rows.widths) != built || len(rows.bases) != built || len(rows.xlens) != built {
		return fmt.Errorf("%w: %d landmark row widths, %d bases and %d exception counts for %d rows",
			ErrBadOracleFile, len(rows.widths), len(rows.bases), len(rows.xlens), built)
	}
	var words, xlen uint64
	for p, k := range rows.widths {
		if k != 2 && k != 4 && k != wideK {
			return fmt.Errorf("%w: landmark row %d has width %d", ErrBadOracleFile, p, k)
		}
		words += uint64(codeWords(n, k))
		xlen += uint64(rows.xlens[p])
	}
	if uint64(len(rows.codes)) != words || uint64(len(rows.xnode)) != xlen || uint64(len(rows.xdist)) != xlen {
		return fmt.Errorf("%w: landmark row sections hold %d code words and %d and %d exception nodes and distances; the rows want %d and %d",
			ErrBadOracleFile, len(rows.codes), len(rows.xnode), len(rows.xdist), words, xlen)
	}
	if built > 0 {
		o.lrows = make([]lrow, built)
	}
	codes, xnode, xdist := rows.codes, rows.xnode, rows.xdist
	for p, k := range rows.widths {
		w, x := codeWords(n, k), rows.xlens[p]
		r := newRow(rowForm{k, rows.bases[p]}, codes[:w:w], xnode[:x:x], xdist[:x:x])
		codes, xnode, xdist = codes[w:], xnode[x:], xdist[x:]
		if err := r.check(n); err != nil {
			return fmt.Errorf("%w: landmark row %d: %v", ErrBadOracleFile, p, err)
		}
		o.lrows[p] = r
	}
	return nil
}

// within reports whether the range [off, off+length) lies inside an
// array of size words.
func within(off, length uint32, size int) bool {
	return uint64(off)+uint64(length) <= uint64(size)
}

// checkLevels validates one unweighted vicinity's levels against its
// radius: a vicinity of radius r stores levels 1 to r, and its boundary
// is all of its last level (a flood vicinity, reaching no landmark, has
// no boundary).
func (o *Oracle) checkLevels(u uint32, f u32map.Flat) error {
	want := uint32(0)
	if r := o.radius[u]; r != NoDist {
		if top := uint32(f.Runs()); r != top {
			return fmt.Errorf("%w: node %d has radius %d but %d levels", ErrBadOracleFile, u, r, top)
		}
		if r > 0 {
			last, _ := f.Run(f.Runs() - 1)
			want = uint32(last.Len())
		}
	}
	if o.boundLen[u] != want {
		return fmt.Errorf("%w: node %d boundary of %d entries is not its last level of %d", ErrBadOracleFile, u, o.boundLen[u], want)
	}
	return nil
}

// checkTail validates one weighted vicinity's runs: an interior and a
// tail holding its boundary when both are non-empty, and one run
// otherwise.
func (o *Oracle) checkTail(u uint32, f u32map.Flat) error {
	runs, b := 1, o.boundLen[u]
	if b > 0 && b < uint32(f.Len()) {
		runs = 2
	}
	tail, _ := f.Run(f.Runs() - 1)
	if f.Runs() != runs || runs == 2 && uint32(tail.Len()) != b {
		return fmt.Errorf("%w: node %d runs do not split its %d entries before its boundary of %d", ErrBadOracleFile, u, f.Len(), b)
	}
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
