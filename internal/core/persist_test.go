package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"vicinity/internal/gen"
	"vicinity/internal/graph"
	"vicinity/internal/oraclefile"
	"vicinity/internal/u32map"
	"vicinity/internal/xrand"
)

// roundTrip serializes o and loads it back.
func roundTrip(t *testing.T, o *Oracle) *Oracle {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteOracle(&buf, o); err != nil {
		t.Fatalf("WriteOracle: %v", err)
	}
	got, err := ReadOracle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadOracle: %v", err)
	}
	return got
}

// assertOraclesAgree property-tests that two oracles answer every
// sampled query identically: distance, method, and path.
func assertOraclesAgree(t *testing.T, a, b *Oracle, n int, trials int) {
	t.Helper()
	assertOraclesAgreeUnder(t, a, b, n, trials, PolicyDefault)
}

// assertOraclesAgreeUnder is assertOraclesAgree with every query sent
// under policy pol.
func assertOraclesAgreeUnder(t *testing.T, a, b *Oracle, n int, trials int, pol Policy) {
	t.Helper()
	ctx := context.Background()
	r := xrand.New(77)
	for trial := 0; trial < trials; trial++ {
		s, u := r.Uint32n(uint32(n)), r.Uint32n(uint32(n))
		ra, errA := a.Query(ctx, Request{S: s, T: u, Policy: pol})
		rb, errB := b.Query(ctx, Request{S: s, T: u, Policy: pol})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("(%d,%d): errors disagree: %v vs %v", s, u, errA, errB)
		}
		if errA != nil {
			continue
		}
		if ra.Dist != rb.Dist || ra.Method != rb.Method {
			t.Fatalf("(%d,%d): %d/%v vs %d/%v", s, u, ra.Dist, ra.Method, rb.Dist, rb.Method)
		}
		_, _, meetA, _ := a.tableDistance(s, u, &Cost{})
		_, _, meetB, _ := b.tableDistance(s, u, &Cost{})
		if ra.Cost.Lookups != rb.Cost.Lookups || ra.Cost.Scanned != rb.Cost.Scanned || meetA != meetB {
			t.Fatalf("(%d,%d): stats diverge: %+v/%d vs %+v/%d", s, u, ra.Cost, meetA, rb.Cost, meetB)
		}
		rpa, _ := a.Query(ctx, Request{S: s, T: u, Policy: pol, WantPath: true})
		rpb, _ := b.Query(ctx, Request{S: s, T: u, Policy: pol, WantPath: true})
		pa, ma, pb, mb := rpa.Path, rpa.Method, rpb.Path, rpb.Method
		if ma != mb || len(pa) != len(pb) {
			t.Fatalf("(%d,%d): paths diverge: %v/%v vs %v/%v", s, u, pa, ma, pb, mb)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("(%d,%d): path element %d: %d vs %d", s, u, i, pa[i], pb[i])
			}
		}
	}
}

// TestSaveLoadRoundTrip checks byte-identical query behavior across
// every option combination the format distinguishes, each under the
// request policy its row names.
func TestSaveLoadRoundTrip(t *testing.T) {
	const n = 400
	g := socialGraph(91, n)
	cases := map[string]struct {
		opts Options
		pol  Policy
	}{
		"defaults":          {Options{Seed: 91}, PolicyDefault},
		"compact-landmarks": {Options{Seed: 91, Alpha: 1.5}, PolicyDefault}, // four-bit rows are the default; more of them here
		"no-landmark-tabs":  {Options{Seed: 91, DisableLandmarkTables: true}, PolicyDefault},
		"estimate-fallback": {Options{Seed: 91}, PolicyEstimate},
		"none-fallback":     {Options{Seed: 91}, PolicyTableOnly},
		"alpha-1":           {Options{Seed: 91, Alpha: 1}, PolicyDefault},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			o := mustBuild(t, g, tc.opts)
			got := roundTrip(t, o)
			if !reflect.DeepEqual(got.Options(), o.Options()) {
				t.Fatalf("options diverge: %+v vs %+v", got.Options(), o.Options())
			}
			if len(got.Landmarks()) != len(o.Landmarks()) {
				t.Fatalf("landmark count %d vs %d", len(got.Landmarks()), len(o.Landmarks()))
			}
			if got.Stats() != o.Stats() {
				t.Fatalf("stats diverge:\n%v\n%v", got.Stats(), o.Stats())
			}
			if got.Memory() != o.Memory() {
				t.Fatalf("memory stats diverge:\n%v\n%v", got.Memory(), o.Memory())
			}
			assertOraclesAgreeUnder(t, o, got, n, 1500, tc.pol)
		})
	}
}

// TestSaveLoadScoped covers scoped builds: the scope list must
// round-trip (Options comparison needs the slice) and uncovered nodes
// must keep failing with ErrNotCovered.
func TestSaveLoadScoped(t *testing.T) {
	const n = 500
	g := socialGraph(93, n)
	r := xrand.New(3)
	scope := make([]uint32, 0, 60)
	seen := map[uint32]bool{}
	for len(scope) < 60 {
		u := r.Uint32n(n)
		if !seen[u] {
			seen[u] = true
			scope = append(scope, u)
		}
	}
	o := mustBuild(t, g, Options{Seed: 93, Nodes: scope})
	got := roundTrip(t, o)
	if len(got.Options().Nodes) != len(scope) {
		t.Fatalf("scope did not round-trip: %d nodes", len(got.Options().Nodes))
	}
	for u := uint32(0); int(u) < n; u++ {
		if got.Covers(u) != o.Covers(u) {
			t.Fatalf("Covers(%d) diverges", u)
		}
	}
	assertOraclesAgree(t, o, got, n, 2000)
}

// TestSaveLoadWeighted covers weighted graphs (Dijkstra vicinities and
// the weighted fallback).
func TestSaveLoadWeighted(t *testing.T) {
	r := xrand.New(95)
	g0 := socialGraph(95, 300)
	b := graph.NewBuilder(300)
	g0.ForEachEdge(func(u, v, _ uint32) {
		b.AddWeightedEdge(u, v, r.Uint32n(4)+1)
	})
	g := b.Build()
	o := mustBuild(t, g, Options{Seed: 95})
	got := roundTrip(t, o)
	if !got.Graph().Weighted() {
		t.Fatal("weighted flag lost")
	}
	assertOraclesAgree(t, o, got, 300, 1500)
}

// TestSaveLoadTiny covers degenerate graphs.
func TestSaveLoadTiny(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		g := gen.Complete(n)
		o := mustBuild(t, g, Options{Seed: 1})
		got := roundTrip(t, o)
		assertOraclesAgree(t, o, got, n, 50)
	}
}

// TestChecksumValidStructuralCorruption covers inconsistencies the
// checksum cannot catch: a file whose CRC is valid but whose node-id
// arrays would index out of bounds at query time. WriteOracle
// faithfully serializes whatever is in memory (checksum included), so
// corrupting the in-memory oracle before saving produces exactly such
// a file; the loader's structural validation must reject it.
func TestChecksumValidStructuralCorruption(t *testing.T) {
	g := socialGraph(99, 200)

	corruptOn := func(g *graph.Graph, name string, mutate func(o *Oracle)) {
		o := mustBuild(t, g, Options{Seed: 99})
		mutate(o)
		var buf bytes.Buffer
		if err := WriteOracle(&buf, o); err != nil {
			t.Fatalf("%s: WriteOracle: %v", name, err)
		}
		if _, err := ReadOracle(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadOracleFile) {
			t.Fatalf("%s: corrupt structure not rejected: %v", name, err)
		}
	}
	corrupt := func(name string, mutate func(o *Oracle)) { corruptOn(g, name, mutate) }

	corrupt("nearest out of range", func(o *Oracle) {
		for u := range o.nearest {
			if !o.isL[u] {
				o.nearest[u] = 200 // == n: would panic in lidx[ls]
				return
			}
		}
	})
	// A boundary longer than its node's entry range would slice past
	// the node's entries in the boundary scan.
	corrupt("boundary length exceeds entry count", func(o *Oracle) {
		for u := range o.vicFlat {
			if el := o.vicFlat[u].Len(); el > 0 {
				o.boundLen[u] = uint32(el) + 1
				return
			}
		}
		t.Fatal("no vicinity found to corrupt")
	})
	// Every run must strictly increase: lookups bisect the block heads
	// and scans walk the runs, so a block head at or below the previous
	// block's last key — a key out of order, or stored twice — would make
	// them miss members silently. Within a block, gaps are positive by
	// construction.
	words := func(o *Oracle, u int) []uint32 {
		r := o.vicFlat[u].Range()
		return o.arena.Words[r.WOff : r.WOff+r.WLen]
	}
	// blockOf finds a leveled table and the word index of the head of
	// one of its blocks that pick accepts (its meta word follows), given
	// the block's index in its run and its key count.
	blockOf := func(o *Oracle, pick func(rb, cnt int) bool) ([]uint32, int) {
		for u, f := range o.vicFlat {
			w := words(o, u)
			b := 0
			for k := 0; k < f.Runs(); k++ {
				run, _ := f.Run(k)
				for rb := 0; rb < run.Blocks(); rb++ {
					if pick(rb, min(u32map.BlockLen, run.Len()-rb*u32map.BlockLen)) {
						return w, 2 + 3*f.Runs() + 2*b
					}
					b++
				}
			}
		}
		t.Fatal("no block found to corrupt")
		return nil, 0
	}
	corrupt("block head not above the previous block's last key", func(o *Oracle) {
		w, at := blockOf(o, func(rb, _ int) bool { return rb == 1 })
		w[at] = w[at-2] // block 0's head: at or below its last key
	})
	corrupt("block width over 32", func(o *Oracle) {
		w, at := blockOf(o, func(_, cnt int) bool { return cnt >= 2 })
		w[at+1] |= 63
	})
	corrupt("block data shorter than its width implies", func(o *Oracle) {
		for u, f := range o.vicFlat {
			if f.Len() == 0 || f.Runs() == 0 {
				continue
			}
			last, _ := f.Run(f.Runs() - 1)
			w := words(o, u)
			meta := &w[2+3*f.Runs()+2*(int(w[2+3*(f.Runs()-1)+2])+last.Blocks()-1)+1]
			if cnt := last.Len() - (last.Blocks()-1)*u32map.BlockLen; cnt >= 2 && *meta&63 < 32 {
				*meta = *meta&^63 | 32 // the table's last block: its data runs past the table
				return
			}
		}
		t.Fatal("no last block of two keys found to corrupt")
	})
	// A weighted table's runs split its interior from its boundary
	// tail; anywhere else, the runs would mix the two.
	weighted := func(mutate func(o *Oracle, u int, w []uint32)) func(o *Oracle) {
		return func(o *Oracle) {
			for u, f := range o.vicFlat {
				if f.Runs() == 2 {
					mutate(o, u, words(o, u))
					return
				}
			}
			t.Fatal("no weighted vicinity with a tail found to corrupt")
		}
	}
	wg := weightedSocialGraph(99, 200)
	corruptOn(wg, "weighted run end off the tail", weighted(func(o *Oracle, u int, w []uint32) {
		w[1]-- // the interior's end, where the tail begins
	}))
	corruptOn(wg, "weighted tail without a boundary", weighted(func(o *Oracle, u int, w []uint32) {
		o.boundLen[u] = 0
	}))
	// Level 0 is the owner alone: another node there would read as
	// distance 0.
	corrupt("owner not first", func(o *Oracle) {
		for u, f := range o.vicFlat {
			if f.Len() > 0 {
				words(o, u)[0] = uint32((u + 1) % len(o.vicFlat))
				return
			}
		}
	})
	// Unweighted distances are implied by the levels, so they must
	// describe the entries: every level non-empty inside the entry
	// range, ending at the radius, with the boundary as the last level.
	leveled := func(mutate func(o *Oracle, u int, w []uint32)) func(o *Oracle) {
		return func(o *Oracle) {
			for u, f := range o.vicFlat {
				if f.Runs() >= 2 && o.boundLen[u] > 1 {
					mutate(o, u, words(o, u))
					return
				}
			}
			t.Fatal("no vicinity with two levels found to corrupt")
		}
	}
	corrupt("level 1 empty", leveled(func(o *Oracle, u int, w []uint32) {
		w[2] = 1 // level 1 would end where it begins
	}))
	corrupt("last level empty", leveled(func(o *Oracle, u int, w []uint32) {
		w[2+3*(int(w[1])-2)] = uint32(o.vicFlat[u].Len())
	}))
	corrupt("boundary is not the last level", leveled(func(o *Oracle, u int, w []uint32) {
		o.boundLen[u]--
	}))
	corrupt("radius is not the top level", leveled(func(o *Oracle, u int, w []uint32) {
		o.radius[u]++
	}))
	// A code array one byte short leaves the codes section out of step
	// with the row widths.
	corrupt("row widths disagree with the sections", func(o *Oracle) {
		o.lrows[0].codes = o.lrows[0].codes[1:]
	})
	corrupt("row width other than 2, 4 or 32", func(o *Oracle) {
		o.lrows[0].k = 8
	})
	// An update that adds a node reads the padding code after the last
	// node as the new node's, so it must escape to an empty list.
	corruptOn(socialGraph(99, 201), "padding code not the escape", func(o *Oracle) {
		row := &o.lrows[0]
		if row.span() == 201 {
			t.Fatal("row of 201 nodes has no padding code")
		}
		row.setCode(201, 0)
	})
	// excepted finds a coded row with at least min exceptions.
	excepted := func(o *Oracle, min int) *lrow {
		for p := range o.lrows {
			if row := &o.lrows[p]; len(row.xnode) >= min {
				return row
			}
		}
		t.Fatalf("no row with %d exceptions found to corrupt", min)
		return nil
	}
	// An exception is read only where the code escapes, so an exception
	// behind any other code would be dead data that answers differently
	// once an update rewrites the code.
	corrupt("exception at a node whose code is not the escape", func(o *Oracle) {
		row := excepted(o, 1)
		row.setCode(row.xnode[0], 0)
	})
	corrupt("exception distance inside the window", func(o *Oracle) {
		row := excepted(o, 1)
		row.xdist[0] = row.base
	})
	corrupt("exception distance unreachable", func(o *Oracle) {
		row := excepted(o, 1)
		row.xdist[0] = NoDist
	})
	// Lookups bisect the exception nodes.
	corrupt("exception nodes not strictly increasing", func(o *Oracle) {
		row := excepted(o, 2)
		row.xnode[1] = row.xnode[0]
	})
	corrupt("exception node at n", func(o *Oracle) {
		row := excepted(o, 1)
		row.xnode[len(row.xnode)-1] = uint32(g.NumNodes())
	})
	corrupt("exception counts disagree with the sections", func(o *Oracle) {
		row := excepted(o, 1)
		row.xdist = row.xdist[1:]
	})
	corrupt("landmarks unsorted", func(o *Oracle) {
		if len(o.landmarks) >= 2 {
			o.landmarks[0], o.landmarks[1] = o.landmarks[1], o.landmarks[0]
		}
	})
	// Vicinity keys — boundary members among them — index the batch
	// engine's per-node mark array: loaded unchecked, the first
	// one-to-many query touching the node panics.
	corrupt("vicinity key out of range", func(o *Oracle) {
		w, at := blockOf(o, func(rb, _ int) bool { return rb == 0 })
		w[at] = uint32(g.NumNodes()) + 5000
	})
}

// metaWord returns the file offset of meta word i: the meta words
// follow the 6-byte file header (magic, version) and the 12-byte
// section header (tag, count).
func metaWord(i int) int { return 6 + 12 + 8*i }

// patchMeta returns a copy of the oracle file blob with meta word i
// rewritten by fn and the CRC-32C trailer recomputed: a checksum-valid
// file carrying a meta value Save would not write.
func patchMeta(blob []byte, i int, fn func(uint64) uint64) []byte {
	b := append([]byte(nil), blob...)
	w := b[metaWord(i):]
	binary.LittleEndian.PutUint64(w, fn(binary.LittleEndian.Uint64(w)))
	crc := crc32.Checksum(b[:len(b)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc)
	return b
}

// TestLoadRetiredOptions pins how files that carry a retired build
// option load. The table-kind meta slot and the scan-smaller flag chose
// a layout and a scan side that no longer exist, so a file setting
// either fails with ErrBadOracleFile naming the option. The
// max-landmarks slot only shaped sampling, and the file stores the
// sampled landmark set, so a non-zero value loads and answers as before.
// So does the no-path-data flag: paths derive from the stored
// distances, so there is nothing left for it to disable. The fallback
// slot held the build-time fallback; each request's Policy chooses it
// now, so any value loads, answers default-policy queries with the
// exact search, and is written back as 0.
func TestLoadRetiredOptions(t *testing.T) {
	g := socialGraph(33, 300)
	o := mustBuild(t, g, Options{Seed: 33})
	blob := oracleBytes(t, o)

	if got := binary.LittleEndian.Uint64(blob[metaWord(metaNodes):]); got != uint64(g.NumNodes()) {
		t.Fatalf("meta layout moved: node-count word reads %d", got)
	}
	set := func(v uint64) func(uint64) uint64 { return func(uint64) uint64 { return v } }

	for _, tc := range []struct {
		name, option string
		file         []byte
	}{
		{"table kind 1", "TableKind", patchMeta(blob, metaTableKind, set(1))},
		{"table kind 2", "TableKind", patchMeta(blob, metaTableKind, set(2))},
		{"scan-smaller flag", "ScanSmallerBoundary", patchMeta(blob, metaFlags, func(f uint64) uint64 { return f | flagScanSmaller })},
	} {
		_, err := ReadOracle(bytes.NewReader(tc.file))
		if !errors.Is(err, ErrBadOracleFile) || !strings.Contains(err.Error(), tc.option) {
			t.Errorf("%s: got %v, want ErrBadOracleFile naming %s", tc.name, err, tc.option)
		}
	}

	for _, tc := range []struct {
		name string
		file []byte
	}{
		{"max landmarks 3", patchMeta(blob, metaMaxLandmarks, set(3))},
		{"no-path-data flag", patchMeta(blob, metaFlags, func(f uint64) uint64 { return f | flagNoPathData })},
	} {
		got, err := ReadOracle(bytes.NewReader(tc.file))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertOraclesAgree(t, o, got, g.NumNodes(), 300)
	}

	// The retired fallback word, on a pair the tables cannot decide.
	ho, hs, hu := hardPairOracle(t, Options{})
	hblob := oracleBytes(t, ho)
	if w := binary.LittleEndian.Uint64(hblob[metaWord(metaFallback):]); w != 0 {
		t.Fatalf("fallback word written as %d, want 0", w)
	}
	want, _, err := queryDist(ho, hs, hu)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{1, 2, 99} {
		got, err := ReadOracle(bytes.NewReader(patchMeta(hblob, metaFallback, set(v))))
		if err != nil {
			t.Fatalf("fallback word %d: %v", v, err)
		}
		if d, m, err := queryDist(got, hs, hu); err != nil || d != want || m != MethodFallbackExact {
			t.Fatalf("fallback word %d: default-policy query answered (%d, %v, %v), want (%d, %v)",
				v, d, m, err, want, MethodFallbackExact)
		}
		resaved := oracleBytes(t, got)
		if w := binary.LittleEndian.Uint64(resaved[metaWord(metaFallback):]); w != 0 || !bytes.Equal(resaved, hblob) {
			t.Fatalf("fallback word %d: re-saved file writes the word as %d (identical to a fresh save: %v)",
				v, w, bytes.Equal(resaved, hblob))
		}
	}
}

// TestLoadRejectsVersion2 pins the format bump: a file that is valid
// in every byte but names version 2 (per-entry distances for every
// graph, uint16 landmark rows) fails with ErrVersion rather than being
// misread.
func TestLoadRejectsVersion2(t *testing.T) {
	blob := oracleBytes(t, mustBuild(t, socialGraph(35, 200), Options{Seed: 35}))
	if v := binary.LittleEndian.Uint16(blob[4:]); v != fileVersion {
		t.Fatalf("header names version %d, want %d", v, fileVersion)
	}
	binary.LittleEndian.PutUint16(blob[4:], 2)
	crc := crc32.Checksum(blob[:len(blob)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc)
	if _, err := ReadOracle(bytes.NewReader(blob)); !errors.Is(err, oraclefile.ErrVersion) {
		t.Fatalf("version-2 file: got %v, want ErrVersion", err)
	}
}

// TestCorruptOracleFiles checks that corruption anywhere in the file is
// rejected (checksum) and truncation at any prefix fails cleanly.
func TestCorruptOracleFiles(t *testing.T) {
	g := socialGraph(97, 200)
	o := mustBuild(t, g, Options{Seed: 97})
	var buf bytes.Buffer
	if err := WriteOracle(&buf, o); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// Sanity: the pristine blob loads.
	if _, err := ReadOracle(bytes.NewReader(blob)); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}

	// Bad magic.
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xFF
	if _, err := ReadOracle(bytes.NewReader(bad)); !errors.Is(err, oraclefile.ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}

	// Bad version.
	bad = append([]byte(nil), blob...)
	bad[4] ^= 0xFF
	if _, err := ReadOracle(bytes.NewReader(bad)); !errors.Is(err, oraclefile.ErrVersion) {
		t.Fatalf("bad version: %v", err)
	}

	// Flip one byte at a sample of offsets: every corruption must be
	// rejected (never a panic, never silent acceptance).
	r := xrand.New(5)
	for trial := 0; trial < 200; trial++ {
		pos := 6 + int(r.Uint32n(uint32(len(blob)-6)))
		bad = append([]byte(nil), blob...)
		bad[pos] ^= 1 << (trial % 8)
		if _, err := ReadOracle(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d accepted", pos)
		}
	}

	// Truncation at a sample of prefix lengths.
	for trial := 0; trial < 100; trial++ {
		cut := int(r.Uint32n(uint32(len(blob))))
		if _, err := ReadOracle(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

// TestLoadSkipsFutureSections: a snapshot that a newer format revision
// extended with trailing sections (unknown tags, byte-count headers)
// must still load on today's reader and answer queries identically —
// the forward-compatibility contract replicas rely on when a writer
// upgrades first.
func TestLoadSkipsFutureSections(t *testing.T) {
	g := socialGraph(33, 300)
	o := mustBuild(t, g, Options{Seed: 33})
	var buf bytes.Buffer
	if err := WriteOracle(&buf, o); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// Rebuild the trailer: drop the end marker (12 bytes) + CRC (4),
	// splice in two future sections, re-terminate, re-checksum.
	body := append([]byte(nil), blob[:len(blob)-16]...)
	section := func(tag uint32, payload []byte) {
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[0:], tag)
		binary.LittleEndian.PutUint64(hdr[4:], uint64(len(payload)))
		body = append(body, hdr[:]...)
		body = append(body, payload...)
	}
	section(500, []byte("future manifest metadata"))
	section(501, bytes.Repeat([]byte{0x5A}, 100_000))
	section(0, nil) // end marker
	crc := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	body = binary.LittleEndian.AppendUint32(body, crc)

	for _, hint := range []int64{int64(len(body)), -1} {
		var (
			got *Oracle
			err error
		)
		if hint < 0 {
			got, err = ReadOracle(bytes.NewReader(body))
		} else {
			got, err = readOracleSized(bytes.NewReader(body), hint)
		}
		if err != nil {
			t.Fatalf("hint %d: extended snapshot rejected: %v", hint, err)
		}
		assertOraclesAgree(t, o, got, g.NumNodes(), 300)
	}
}
