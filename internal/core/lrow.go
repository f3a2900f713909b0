package core

import (
	"fmt"
	"math/bits"
	"slices"
)

// lrow is one landmark's dense distance row over all n nodes. It holds
// one k-bit code per node in 32-bit words, node v's code at bits
// [k·v mod 32, k·v mod 32 + k) of word k·v/32, with k = 2, 4 or 32. A
// code c below the top code 2^k−1, the escape, reads base + c. The
// escape sends a read to the row's exception list, (node, distance)
// pairs sorted by node, and a node the list does not hold is
// unreachable. The codes past the last node pad the last word with the
// escape, so they read unreachable: an update that adds nodes reads them
// before it repairs them.
//
// There are two forms. A coded row has k = 2 or 4 and a short exception
// list. A wide row has k = 32, base 0 and no exceptions: its codes are
// the distances themselves, with NoDist, the escape, for unreachable.
// Every row that is built, repaired or grown ends in one chooser
// (rechosen), which stores it in the form of fewest bytes, four per
// code word plus exceptionBytes per exception, ties going to the smaller
// k, then the smaller base. The form depends only on the row's distances
// and n, so a repaired row is byte-identical to a fresh build's. Social
// graphs have small diameters, and almost all of a row's distances fall
// in three consecutive values (99.8% of every row on the benchmark
// graph), so their rows are two-bit with a short exception list. Paths
// and grids spread their distances over many values and stay wide.
type lrow struct {
	rowForm
	lg    uint8    // log2 k
	shr   uint8    // 5 − lg: node v's code lies in word v >> shr
	esc   uint32   // the escape code, 2^k−1
	codes []uint32 // k-bit codes, node v at bits k·v of the words
	xnode []uint32 // exception nodes, strictly increasing
	xdist []uint32 // their distances, each finite and outside the codes' window
}

// rowForm is a row's storage: k bits per node from base.
type rowForm struct {
	k    uint8
	base uint32
}

const (
	wideK = 32
	// exceptionBytes is what one exception costs: its node and distance.
	exceptionBytes = 8
	// maxNibble is the largest distance nibbleForm codes.
	maxNibble = 14
)

// nibbleForm is the form the bit-parallel BFS stages rows in: four bits
// per node from 0, which codes every distance up to maxNibble.
var nibbleForm = rowForm{k: 4}

// top returns the form's escape code, 2^k−1: the codes below it read
// base + code.
func (f rowForm) top() uint32 { return 1<<f.k - 1 }

// codeWords returns the words that hold n codes of k bits.
func codeWords(n int, k uint8) int { return (n*int(k) + 31) / 32 }

// newRow returns a row of form f over codes and the exception list
// xnode, xdist.
func newRow(f rowForm, codes, xnode, xdist []uint32) lrow {
	lg := uint8(bits.TrailingZeros8(f.k))
	return lrow{rowForm: f, lg: lg, shr: 5 - lg, esc: f.top(), codes: codes, xnode: xnode, xdist: xdist}
}

// code returns node v's code; v must be below the row's span. The
// shift counts are masked to 31, which they never exceed, so that no
// shift needs the code Go emits for counts past a word.
func (r *lrow) code(v uint32) uint32 {
	return r.codes[v>>(r.shr&31)] >> (v << (r.lg & 31) & 31) & r.esc
}

// setCode stores code c for node v.
func (r *lrow) setCode(v, c uint32) {
	sh := v << (r.lg & 31) & 31
	w := &r.codes[v>>(r.shr&31)]
	*w = *w&^(r.esc<<sh) | c<<sh
}

// at returns the row's distance to v.
func (r *lrow) at(v uint32) uint32 {
	if c := r.code(v); c != r.esc {
		return r.base + c
	}
	return r.exception(v)
}

// exception reads v's distance from the exception list: NoDist when
// the list does not hold v.
func (r *lrow) exception(v uint32) uint32 {
	if i, ok := slices.BinarySearch(r.xnode, v); ok {
		return r.xdist[i]
	}
	return NoDist
}

// bytes returns the row's footprint.
func (r *lrow) bytes() int {
	return 4*len(r.codes) + exceptionBytes*len(r.xnode)
}

// span returns the number of nodes the row can answer for: its length,
// padding codes included, which read unreachable.
func (r *lrow) span() int {
	return len(r.codes) << r.shr
}

// reader returns an accessor that also answers for nodes past the
// row's end (added by an update): they are unreachable until repaired.
func (r lrow) reader() func(v uint32) uint32 {
	n := r.span()
	return func(v uint32) uint32 {
		if int(v) >= n {
			return NoDist
		}
		return r.at(v)
	}
}

// expand writes the row at full width into dst, which may be longer
// than the row: nodes past its end (added by an update) are unreachable.
func (r *lrow) expand(dst []uint32) {
	span, x := r.span(), 0
	for v := range dst {
		d := NoDist
		if v < span {
			if c := r.code(uint32(v)); c != r.esc {
				d = r.base + c
			} else if x < len(r.xnode) && r.xnode[x] == uint32(v) {
				d = r.xdist[x]
				x++
			}
		}
		dst[v] = d
	}
}

// extended returns a copy of the row, in its own form, extended to n
// nodes, the new ones unreachable. The copy shares the exception list,
// which is never written in place.
func (r *lrow) extended(n int) lrow {
	return newRow(r.rowForm, grow(r.codes, codeWords(n, r.k), ^uint32(0)), r.xnode, r.xdist)
}

// grown returns the row extended to n nodes, the new ones unreachable,
// in the form chosen for it there: n enters the chooser, so growth alone
// can change a row's form.
func (r *lrow) grown(n int) lrow {
	return r.extended(n).rechosen(n)
}

// widen converts a row of n nodes to the wide form in place, for a
// distance its codes cannot hold.
func (r *lrow) widen(n int) {
	wide := make([]uint32, n)
	r.expand(wide)
	*r = newRow(rowForm{k: wideK}, wide, nil, nil)
}

// packRow stores dist (NoDist for unreachable), which it takes over, in
// the form chosen for it: a row that stays wide keeps dist.
func packRow(dist []uint32) lrow {
	return newRow(rowForm{k: wideK}, dist, nil, nil).rechosen(len(dist))
}

// rechosen returns the row of n nodes in the form chooseForm picks for
// its distances. A row already in that form is returned as it is; any
// other is converted into fresh storage.
func (r lrow) rechosen(n int) lrow {
	return r.rechoose(n, r.levels())
}

// rechoose is rechosen for a row whose levels the caller has counted.
func (r lrow) rechoose(n int, levels []level) lrow {
	f := chooseForm(n, levels)
	switch {
	case f == r.rowForm:
		return r
	case r.rowForm == nibbleForm && len(r.xnode) == 0 && f.k != wideK:
		return packNibbles(r.codes, n, f, f.exceptions(levels))
	}
	dist := make([]uint32, n)
	r.expand(dist)
	if f.k == wideK {
		return newRow(f, dist, nil, nil)
	}
	return encode(dist, f, f.exceptions(levels))
}

// level is one finite distance of a row and the number of its nodes at
// that distance.
type level struct{ d, count uint32 }

// chooseForm returns the form of fewest bytes for a row of n nodes whose
// finite distances are levels, ascending by d: four bytes per code word
// plus exceptionBytes for every finite distance outside the window
// [base, base+2^k−2]. The wide form, k = 32 from base 0, leaves none
// outside. Ties go to the smaller k, then the smaller base.
func chooseForm(n int, levels []level) rowForm {
	var finite uint64
	for _, l := range levels {
		finite += uint64(l.count)
	}
	best, cost := rowForm{k: wideK}, 4*uint64(codeWords(n, wideK))
	for _, k := range [...]uint8{4, 2} { // the smaller k wins a tie
		base, held := bestWindow(levels, rowForm{k: k}.top())
		if c := 4*uint64(codeWords(n, k)) + exceptionBytes*(finite-held); c <= cost {
			best, cost = rowForm{k, base}, c
		}
	}
	return best
}

// bestWindow returns the smallest base whose window of w values, [base,
// base+w−1], holds the most of levels' nodes, and how many it holds. The
// smallest best base is 0 or puts a level at the window's top: lowering
// any other base by one loses no node. So the candidates are those
// windows, in ascending order of base.
func bestWindow(levels []level, w uint32) (base uint32, held uint64) {
	// done ranks a candidate once its count is final: base 0 comes up
	// for every level below w, holding more each time.
	done := func(b uint32, c uint64) {
		if c > held {
			base, held = b, c
		}
	}
	var sum, cc uint64 // cc: what candidate cb holds so far
	lo, cb := 0, uint32(0)
	for i, l := range levels {
		sum += uint64(l.count)
		b := uint32(0)
		if l.d >= w-1 {
			b = l.d - (w - 1)
		}
		for ; levels[lo].d < b; lo++ {
			sum -= uint64(levels[lo].count)
		}
		if i > 0 && b != cb {
			done(cb, cc)
		}
		cb, cc = b, sum
	}
	if len(levels) > 0 {
		done(cb, cc)
	}
	return base, held
}

// exceptions returns how many of levels' nodes form f leaves to its
// exception list.
func (f rowForm) exceptions(levels []level) int {
	x := 0
	for _, l := range levels {
		if l.d-f.base >= f.top() {
			x += int(l.count)
		}
	}
	return x
}

// levels returns the row's finite distances, ascending, with their
// counts: the chooser's input. A coded row counts its codes and adds its
// exceptions, which lie outside the codes' window.
func (r *lrow) levels() []level {
	if r.k == wideK {
		return levelsOf(r.codes)
	}
	cnt := codeCounts(r.codes, r.k)
	x := levelsOf(r.xdist)
	below := 0
	for below < len(x) && x[below].d < r.base {
		below++
	}
	out := append(make([]level, 0, len(x)+int(r.esc)), x[:below]...)
	for c, m := range cnt[:r.esc] {
		if m > 0 {
			out = append(out, level{r.base + uint32(c), m})
		}
	}
	return append(out, x[below:]...)
}

// levelsOf returns the distinct finite values of ds, ascending, with
// their counts. Small values are counted in a dense array, which covers
// every unweighted row; others are sorted.
func levelsOf(ds []uint32) []level {
	var top uint32
	finite := 0
	for _, d := range ds {
		if d != NoDist {
			top = max(top, d)
			finite++
		}
	}
	var out []level
	if finite == 0 {
		return out
	}
	if uint64(top) < 4*uint64(len(ds)) {
		cnt := make([]uint32, top+1)
		for _, d := range ds {
			if d != NoDist {
				cnt[d]++
			}
		}
		for d, m := range cnt {
			if m > 0 {
				out = append(out, level{uint32(d), m})
			}
		}
		return out
	}
	s := make([]uint32, 0, finite)
	for _, d := range ds {
		if d != NoDist {
			s = append(s, d)
		}
	}
	slices.Sort(s)
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j] == s[i] {
			j++
		}
		out = append(out, level{s[i], uint32(j - i)})
		i = j
	}
	return out
}

// codeCounts returns how many of codes' k-bit codes (k = 2 or 4) hold
// each value, padding included. Two-bit codes are counted by popcount,
// two words at a time: lo holds each code's low bit, hi its high bit, so
// lo counts the codes 1 and 3, hi the codes 2 and 3, and lo&hi the 3s.
func codeCounts(codes []uint32, k uint8) (cnt [16]uint32) {
	if k == 2 {
		var ones, twos, threes int
		for i := 0; i < len(codes); i += 2 {
			w := uint64(codes[i])
			if i+1 < len(codes) {
				w |= uint64(codes[i+1]) << 32
			}
			lo, hi := w&0x5555555555555555, w>>1&0x5555555555555555
			ones += bits.OnesCount64(lo)
			twos += bits.OnesCount64(hi)
			threes += bits.OnesCount64(lo & hi)
		}
		cnt[1], cnt[2], cnt[3] = uint32(ones-threes), uint32(twos-threes), uint32(threes)
		cnt[0] = uint32(16*len(codes)) - cnt[1] - cnt[2] - cnt[3]
		return cnt
	}
	for _, w := range codes {
		for range 8 {
			cnt[w&0xF]++
			w >>= 4
		}
	}
	return cnt
}

// encode stores dist (NoDist for unreachable) in the coded form f, in
// fresh storage; x is the number of exceptions it makes.
func encode(dist []uint32, f rowForm, x int) lrow {
	r := newRow(f, make([]uint32, codeWords(len(dist), f.k)), make([]uint32, 0, x), make([]uint32, 0, x))
	for v := range r.span() {
		c := r.esc
		if v < len(dist) {
			if d := dist[v]; d-f.base < r.esc {
				c = d - f.base
			} else if d != NoDist {
				r.xnode = append(r.xnode, uint32(v))
				r.xdist = append(r.xdist, d)
			}
		}
		r.setCode(uint32(v), c)
	}
	return r
}

// packNibbles codes a staged nibbleForm row of n nodes (0xF for
// unreachable, no exceptions) in the coded form f by table: each staged
// byte, two nodes, maps to their two codes and flags the ones that
// become exceptions, x of them in all.
func packNibbles(nib []uint32, n int, f rowForm, x int) lrow {
	top := f.top()
	var tab [256]uint16 // the two codes, low node first, k bits each; bits 8 and 9 flag exceptions
	for b := range tab {
		for h := range 2 {
			d := uint32(b >> (4 * h) & 0xF)
			c := d - f.base
			if d == 0xF {
				c = top // unreachable
			} else if c >= top {
				c = top
				tab[b] |= 1 << (8 + h)
			}
			tab[b] |= uint16(c) << (h * int(f.k))
		}
	}
	r := newRow(f, make([]uint32, codeWords(n, f.k)), make([]uint32, 0, x), make([]uint32, 0, x))
	// except notes the nodes the flags mark among the eight of staged
	// word i, two flag bits per staged byte.
	except := func(i int, flags uint16) {
		for h := range 8 {
			if flags>>h&1 != 0 {
				r.xnode = append(r.xnode, uint32(8*i+h))
				r.xdist = append(r.xdist, nib[i]>>(4*h)&0xF)
			}
		}
	}
	if f.k == 4 {
		for i, w := range nib {
			e0, e1, e2, e3 := tab[uint8(w)], tab[uint8(w>>8)], tab[uint8(w>>16)], tab[uint8(w>>24)]
			r.codes[i] = uint32(uint8(e0)) | uint32(uint8(e1))<<8 | uint32(uint8(e2))<<16 | uint32(uint8(e3))<<24
			if flags := e0>>8 | e1>>8<<2 | e2>>8<<4 | e3>>8<<6; flags != 0 {
				except(i, flags)
			}
		}
		return r
	}
	// Two bits: two staged words per code word, the second absent past
	// the row's end, where the codes pad with the escape.
	for i := range r.codes {
		w0, w1 := nib[2*i], ^uint32(0)
		if 2*i+1 < len(nib) {
			w1 = nib[2*i+1]
		}
		e0, e1, e2, e3 := tab[uint8(w0)], tab[uint8(w0>>8)], tab[uint8(w0>>16)], tab[uint8(w0>>24)]
		e4, e5, e6, e7 := tab[uint8(w1)], tab[uint8(w1>>8)], tab[uint8(w1>>16)], tab[uint8(w1>>24)]
		r.codes[i] = uint32(e0&0xF) | uint32(e1&0xF)<<4 | uint32(e2&0xF)<<8 | uint32(e3&0xF)<<12 |
			uint32(e4&0xF)<<16 | uint32(e5&0xF)<<20 | uint32(e6&0xF)<<24 | uint32(e7&0xF)<<28
		if (e0|e1|e2|e3|e4|e5|e6|e7)>>8 != 0 {
			except(2*i, e0>>8|e1>>8<<2|e2>>8<<4|e3>>8<<6)
			except(2*i+1, e4>>8|e5>>8<<2|e6>>8<<4|e7>>8<<6)
		}
	}
	return r
}

// check validates a loaded row of n nodes: a base that leaves room for
// its codes, padding codes that escape, and exceptions at escaped nodes
// below n, strictly increasing, each with a finite distance outside the
// window. A wide row, whose window holds every finite distance, can
// have none.
func (r *lrow) check(n int) error {
	if r.base > NoDist-r.esc {
		return fmt.Errorf("base %d overflows its %d-bit codes", r.base, r.k)
	}
	for v := n; v < r.span(); v++ {
		if c := r.code(uint32(v)); c != r.esc {
			return fmt.Errorf("padding code %d after its %d nodes is not the escape", c, n)
		}
	}
	for i, v := range r.xnode {
		if int(v) >= n || i > 0 && r.xnode[i-1] >= v {
			return fmt.Errorf("exception node %d out of order or range", v)
		}
		if c := r.code(v); c != r.esc {
			return fmt.Errorf("exception at node %d, whose code %d is not the escape", v, c)
		}
		if d := r.xdist[i]; d == NoDist || d-r.base < r.esc {
			return fmt.Errorf("exception distance %d at node %d is unreachable or inside the window", d, v)
		}
	}
	return nil
}
