package u32map

import (
	"errors"
	"fmt"
	"math/bits"
)

// BlockLen is B, the number of keys per block of a coded run. Every
// block but a run's last holds exactly B keys. It is a measured
// constant, like shortRun. On the benchmark graph (LiveJournal profile,
// n = 50,000, a 2-vCPU Xeon VM) the whole oracle took 53.2 MB at
// B = 32, 51.4 MB at B = 64 and 50.8 MB at B = 128, and a table-only
// query over the 19,000 scan-routed pairs of 20,000 uniform ones took
// p50 2.5–3.6 µs at B = 32, 2.5–3.1 µs at B = 64 (alternating passes)
// and 3.2–3.3 µs at B = 128 (one pass). A walk decodes a block only up
// to the keys it needs, so a longer block costs a point lookup more
// gaps but saves block records and bisection steps, up to B = 64.
const BlockLen = 64

// A block record is two words: the block's first key in full (its
// head), then its meta word — the block's data offset, in words from
// the start of its table, above the bit width of its gaps in the low
// widthBits bits.
const (
	widthBits = 6
	widthMask = 1<<widthBits - 1
	// MaxTableWords bounds one coded table: its block data offsets are
	// table-local and take the 26 bits above the width.
	MaxTableWords = 1 << (32 - widthBits)
)

// A coded table is a sequence of words, local to itself, so it moves
// between arenas by a plain copy:
//
//	leveled:  owner, R, R × {end, last, block}, NB × {head, meta}, data
//	weighted: R, R × {end, last, block}, NB × {head, meta}, data
//
// R is the number of stored runs. A leveled table's entry 0 is its
// owner, level 0, which the header holds: stored run k is level k+1 and
// begins at entry 1. A weighted table's runs (its interior, then its
// tail) begin at entry 0. Each run record gives the table-local entry
// index where the run ends, its last key and the index of its first
// block among the table's NB block records. A run of c keys has
// ceil(c/B) blocks. A block of c keys stores its head and the c-1 gaps
// after it as gap-1, packed least significant bit first into
// ceil(w·(c-1)/32) data words at the block's width w, the bit length of
// its largest gap-1 (0 for a block of consecutive ids). Keys strictly
// increase within a block by construction; the loader checks that each
// head lies above the previous block's last key.

// AppendTable appends the coded form of one table to dst and returns
// the extended slice. keys holds the table's entries in stored order
// and starts the entry index where each run past the implicit ones
// begins: on a leveled table keys[0] is the owner, level 1 begins at
// entry 1 and starts holds where each level from 2 on begins; on a
// weighted table run 0 begins at entry 0 and starts holds the tail's
// start when there are two runs. Every run must strictly increase.
func AppendTable(dst []uint32, leveled bool, keys, starts []uint32) []uint32 {
	base := len(dst)
	first := uint32(0)
	if leveled {
		dst = append(dst, keys[0])
		first = 1
	}
	runs := len(starts) + 1
	if first == uint32(len(keys)) {
		runs = 0 // an owner alone
	}
	end := func(k int) uint32 {
		if k < len(starts) {
			return starts[k]
		}
		return uint32(len(keys))
	}
	blocks := 0
	for k, lo := 0, first; k < runs; k++ {
		hi := end(k)
		blocks += int(hi-lo+BlockLen-1) / BlockLen
		lo = hi
	}
	dst = append(dst, uint32(runs))
	rec := len(dst)
	blk := rec + 3*runs
	dst = append(dst, make([]uint32, 3*runs+2*blocks)...)
	b := 0
	for k, lo := 0, first; k < runs; k++ {
		hi := end(k)
		dst[rec+3*k], dst[rec+3*k+1], dst[rec+3*k+2] = hi, keys[hi-1], uint32(b)
		for b0 := lo; b0 < hi; b0 += BlockLen {
			run := keys[b0:min(b0+BlockLen, hi)]
			var wide uint32
			for i := 1; i < len(run); i++ {
				wide |= run[i] - run[i-1] - 1
			}
			w := uint(bits.Len32(wide))
			dst[blk+2*b] = run[0]
			dst[blk+2*b+1] = uint32(len(dst)-base)<<widthBits | uint32(w)
			var acc uint64
			var have uint
			for i := 1; i < len(run); i++ {
				acc |= uint64(run[i]-run[i-1]-1) << have
				if have += w; have >= 32 {
					dst = append(dst, uint32(acc))
					acc >>= 32
					have -= 32
				}
			}
			if have > 0 {
				dst = append(dst, uint32(acc))
			}
			b++
		}
		lo = hi
	}
	return dst
}

// dataWords is the number of data words of a block of cnt keys at
// width w.
func dataWords(w uint32, cnt int) int {
	return (int(w)*(cnt-1) + 31) / 32
}

// Run is one coded run of a table: strictly increasing keys in blocks
// of BlockLen. It is a view into the arena; the zero value is empty.
type Run struct {
	t    []uint32 // the table's words
	bb   int      // word index in t of the run's first block record
	n    int      // keys
	last uint32
}

// Len returns the number of keys in the run.
func (r Run) Len() int { return r.n }

// Blocks returns the number of blocks in the run.
func (r Run) Blocks() int { return (r.n + BlockLen - 1) / BlockLen }

// head returns the first key of block b.
func (r Run) head(b int) uint32 { return r.t[r.bb+2*b] }

// Block decodes block b, 0 <= b < Blocks(), into buf and returns its
// keys: BlockLen of them, fewer in the run's last block. Key j of the
// block is key b·BlockLen+j of the run.
func (r Run) Block(b int, buf *[BlockLen]uint32) []uint32 {
	x, meta := r.t[r.bb+2*b], r.t[r.bb+2*b+1]
	out := buf[:min(BlockLen, r.n-b*BlockLen)]
	w := uint(meta & widthMask)
	mask := uint64(1)<<w - 1
	data := r.t[meta>>widthBits:]
	var acc uint64
	var have uint
	out[0] = x
	for i, p := 1, 0; i < len(out); i++ {
		if have < w {
			acc |= uint64(data[p]) << have
			p++
			have += 32
		}
		x += uint32(acc&mask) + 1
		acc >>= w
		have -= w
		out[i] = x
	}
	return out
}

// find decodes the block with the given head and meta word, of cnt
// keys, up to its first key at least key, and reports that key's index
// in the block when it equals key.
func find(t []uint32, head, meta uint32, cnt int, key uint32) (int, bool) {
	if head >= key {
		return 0, head == key
	}
	w := uint(meta & widthMask)
	mask := uint64(1)<<w - 1
	data := t[meta>>widthBits:]
	var acc uint64
	var have uint
	x := head
	for i, p := 1, 0; i < cnt; i++ {
		if have < w {
			acc |= uint64(data[p]) << have
			p++
			have += 32
		}
		x += uint32(acc&mask) + 1
		acc >>= w
		have -= w
		if x >= key {
			return i, x == key
		}
	}
	return 0, false
}

// cursor walks a coded run, or a plain strictly increasing slice, in
// increasing order. A coded cursor decodes as it goes: it knows the
// head of every block for free, a seek past whole blocks skips them by
// their heads, and inside a block it decodes only up to the first key
// it needs, keeping the decoder's state to go on from there. A walk
// only moves forward, so no decoded key is needed twice.
type cursor struct {
	r     Run
	keys  []uint32 // plain side: the keys themselves
	plain bool
	b     int    // coded: the current block
	i     int    // position in block b (coded) or in keys (plain)
	x     uint32 // the current key
	lim   uint32 // coded: every key of the run below lim is in blocks up to b
	// Coded: the decoder of block b, positioned after key i.
	cnt  int    // keys in block b
	p    int    // next data word, an index into r.t
	acc  uint64 // undecoded bits
	have uint   // bits in acc
	w    uint   // block b's width
}

// reset points the cursor at a coded run r, or at plain keys, before
// its first key.
func (c *cursor) reset(r Run, keys []uint32, plain bool) {
	c.r, c.keys, c.plain, c.b, c.i = r, keys, plain, 0, 0
}

// enter moves a coded cursor to the head of block b.
func (c *cursor) enter(b int) {
	meta := c.r.t[c.r.bb+2*b+1]
	c.b, c.i, c.x = b, 0, c.r.head(b)
	c.cnt = min(BlockLen, c.r.n-b*BlockLen)
	c.p, c.acc, c.have, c.w = int(meta>>widthBits), 0, 0, uint(meta&widthMask)
	if b+1 < c.r.Blocks() {
		c.lim = c.r.head(b + 1)
	} else {
		c.lim = c.r.last + 1 // keys are node ids, so last < 2^32-1
	}
}

// pos returns the number of keys before the cursor: its index, or the
// side's length once exhausted.
func (c *cursor) pos() int {
	if c.plain {
		return c.i
	}
	return min(c.b*BlockLen+c.i, c.r.n)
}

// exhaust moves the cursor past its last key.
func (c *cursor) exhaust() {
	if c.plain {
		c.i = len(c.keys)
	} else {
		c.b, c.i = c.r.Blocks(), 0
	}
}

// step advances one key and reports whether one was left.
func (c *cursor) step() bool {
	if c.plain {
		if c.i++; c.i == len(c.keys) {
			return false
		}
		c.x = c.keys[c.i]
		return true
	}
	if c.i+1 < c.cnt {
		return c.decodeTo(0) // the next key is at least 0
	}
	if c.b+1 == c.r.Blocks() {
		c.exhaust()
		return false
	}
	c.enter(c.b + 1)
	return true
}

// decodeTo decodes block b past key i up to its first key at least t;
// when the block ends first, the cursor moves to the next block's head,
// which lies above t. t must lie below lim.
func (c *cursor) decodeTo(t uint32) bool {
	words, w := c.r.t, c.w
	mask := uint64(1)<<w - 1
	acc, have, p, x := c.acc, c.have, c.p, c.x
	for i := c.i + 1; i < c.cnt; i++ {
		if have < w {
			acc |= uint64(words[p]) << have
			p++
			have += 32
		}
		x += uint32(acc&mask) + 1
		acc >>= w
		have -= w
		if x >= t {
			c.i, c.x, c.acc, c.have, c.p = i, x, acc, have, p
			return true
		}
	}
	c.enter(c.b + 1)
	return true
}

// seek advances to the first key at least t, which lies above the
// current key, and reports whether there is one.
func (c *cursor) seek(t uint32) bool {
	if c.plain {
		lo, hi := c.i+1, len(c.keys)
		for lo < hi {
			if m := int(uint(lo+hi) >> 1); c.keys[m] < t {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if c.i = lo; lo == len(c.keys) {
			return false
		}
		c.x = c.keys[lo]
		return true
	}
	if t >= c.lim {
		nb := c.r.Blocks()
		if c.b+1 == nb {
			c.exhaust()
			return false
		}
		// The last block whose head is at most t; head(b+1) = lim is.
		lo, hi := c.b+1, nb
		for hi-lo > 1 {
			if m := int(uint(lo+hi) >> 1); c.r.head(m) <= t {
				lo = m
			} else {
				hi = m
			}
		}
		c.enter(lo)
		if c.x == t {
			return true
		}
		if t >= c.lim { // past the run's last key
			c.exhaust()
			return false
		}
	}
	return c.decodeTo(t)
}

// Meet walks the keys that two strictly increasing sides share, in
// increasing order: two coded runs (Runs), or a plain slice and a coded
// run (Keys; paths walk a node's adjacency list against a level this
// way). It is a leapfrog: each side seeks the other's current key, and
// a coded side skips every block whose head range cannot hold it
// without decoding it. The walk lives on the caller's stack; starting
// it allocates nothing.
//
// Positions count keys, not blocks, so they do not depend on how much
// was skipped. At a shared key, i and j are its indexes, the number of
// keys of each side below it. Once no shared key is left, i and j count
// each side's keys at or below m, the smaller of the two sides' last
// keys (both 0 when a side is empty): one side is exhausted, the other
// stopped at its first key above m. That is what a merge of the two
// sides would have stepped over, whichever side skipped blocks.
type Meet struct {
	a, b    cursor
	live    bool // a shared key may still follow
	matched bool // the last Next returned a shared key
}

// Runs starts a walk over two coded runs.
func (m *Meet) Runs(a, b Run) {
	m.a.reset(a, nil, false)
	m.b.reset(b, nil, false)
	m.live, m.matched = a.n > 0 && b.n > 0, false
	if m.live {
		m.a.enter(0)
		m.b.enter(0)
	}
}

// Keys starts a walk over a plain strictly increasing slice a and a
// coded run b.
func (m *Meet) Keys(a []uint32, b Run) {
	m.a.reset(Run{}, a, true)
	m.b.reset(b, nil, false)
	m.live, m.matched = len(a) > 0 && b.n > 0, false
	if m.live {
		m.a.x = a[0]
		m.b.enter(0)
	}
}

// Next moves to the next shared key and returns its positions, ok
// true; or, when none is left, the stopping positions and ok false
// (see Meet).
func (m *Meet) Next() (i, j int, ok bool) {
	a, b := &m.a, &m.b
	if m.live && m.matched {
		okA, okB := a.step(), b.step() // both: a stop counts the match on both sides
		m.live, m.matched = okA && okB, false
	}
	for m.live {
		switch {
		case a.x < b.x:
			m.live = a.seek(b.x)
		case b.x < a.x:
			m.live = b.seek(a.x)
		default:
			m.matched = true
			return a.pos(), b.pos(), true
		}
	}
	return a.pos(), b.pos(), false
}

// Key returns the shared key the last Next returned.
func (m *Meet) Key() uint32 { return m.a.x }

// Intersect finds the first (smallest) key common to runs a and b:
// ok is true and i, j are its indexes; otherwise i and j are where the
// walk stopped (see Meet). Either way i+j counts the keys a merge of
// the two runs would have stepped over before the stopping point.
func Intersect(a, b Run) (i, j int, ok bool) {
	var m Meet
	m.Runs(a, b)
	return m.Next()
}

// ErrBadTable reports a coded table that fails Flat.Check.
var ErrBadTable = errors.New("u32map: malformed coded table")

// Check decodes every run of the table and reports whether the coded
// form is the one AppendTable writes for keys below n: run records
// whose ends strictly increase to the table's entry count and whose
// first blocks follow one another; no width over 32; every block's
// data at its place and no shorter than its width implies; every key
// below n; each block head above the previous block's last key; and
// each run's last key as recorded. Loaders call it on tables they
// cannot trust. A leveled table's owner is the caller's to check.
func (f Flat) Check(n uint32) error {
	if f.eLen == 0 {
		return nil
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: "+format, append([]any{ErrBadTable}, args...)...)
	}
	t := f.words()
	h, start := f.header()
	if len(t) <= h {
		return bad("header past the table's %d words", len(t))
	}
	if f.a.Leveled && t[0] >= n {
		return bad("owner %d out of range", t[0])
	}
	runs := t[h]
	h++ // the run records
	if uint64(runs) > uint64(len(t)-h)/3 {
		return bad("%d run records past the table's %d words", runs, len(t))
	}
	// The block count follows from the run ends, which must be checked
	// first: the data begins after the last block record.
	blocks, lo := 0, start
	for k := 0; k < int(runs); k++ {
		hi := t[h+3*k]
		if hi <= lo || hi > f.eLen {
			return bad("run %d ends at entry %d, after %d, of %d", k, hi, lo, f.eLen)
		}
		if int(t[h+3*k+2]) != blocks {
			return bad("run %d starts at block %d, not %d", k, t[h+3*k+2], blocks)
		}
		blocks += int(hi-lo+BlockLen-1) / BlockLen
		lo = hi
	}
	if lo != f.eLen {
		return bad("runs hold %d entries, the table %d", lo, f.eLen)
	}
	bb := h + 3*int(runs)
	data := bb + 2*blocks
	if data > len(t) {
		return bad("%d block records past the table's %d words", blocks, len(t))
	}
	var buf [BlockLen]uint32
	b, lo := 0, start
	for k := 0; k < int(runs); k++ {
		hi := t[h+3*k]
		r := Run{t: t, bb: bb + 2*b, n: int(hi - lo), last: t[h+3*k+1]}
		var prev uint32
		for rb := 0; rb < r.Blocks(); rb++ {
			head, meta := r.head(rb), t[r.bb+2*rb+1]
			if rb > 0 && head <= prev {
				return bad("run %d block %d head %d not above the previous block's last key %d", k, rb, head, prev)
			}
			w := meta & widthMask
			if w > 32 {
				return bad("run %d block %d width %d over 32", k, rb, w)
			}
			if int(meta>>widthBits) != data {
				return bad("run %d block %d data at word %d, not %d", k, rb, meta>>widthBits, data)
			}
			if data += dataWords(w, min(BlockLen, r.n-rb*BlockLen)); data > len(t) {
				return bad("run %d block %d data shorter than its width %d implies", k, rb, w)
			}
			keys := r.Block(rb, &buf)
			for i, x := range keys {
				if x >= n || i > 0 && x <= keys[i-1] { // a wrapped gap decodes below its predecessor
					return bad("run %d block %d key %d out of range or order", k, rb, x)
				}
			}
			prev = keys[len(keys)-1]
		}
		if prev != r.last {
			return bad("run %d ends at key %d, its record says %d", k, prev, r.last)
		}
		b += r.Blocks()
		lo = hi
	}
	if data != len(t) {
		return bad("%d words after the last block's data", len(t)-data)
	}
	return nil
}
