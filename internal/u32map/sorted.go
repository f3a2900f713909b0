package u32map

import "math/bits"

// shortRun is the run length up to which Sorter uses an insertion sort:
// the radix sort's 256-bucket passes cost a fixed ~0.7 µs, which
// shorter runs do not repay (on ids below 2^16, a 2-vCPU Xeon VM
// sorted 64 keys in 1.0 µs by insertion and 1.3 µs by radix, 96 keys
// in 1.9 and 1.6 µs).
const shortRun = 80

// Sorter sorts the runs of tables being built, carrying per-entry
// distances along: an insertion sort for short runs, a byte-wise LSD
// radix sort for longer ones, both linear in practice (vicinity runs
// are short or hold small node ids). Its buffers grow to the longest
// run seen and are reused, so a build keeps one Sorter per worker.
type Sorter struct {
	keys, dists []uint32
}

// Sort sorts keys ascending in place and permutes dists (nil, or as
// long as keys) alongside. Keys must be distinct; the radix passes are
// stable regardless.
func (s *Sorter) Sort(keys, dists []uint32) {
	if len(keys) <= shortRun {
		insertionSort(keys, dists)
		return
	}
	var top uint32
	for _, k := range keys {
		top |= k
	}
	if cap(s.keys) < len(keys) {
		s.keys = make([]uint32, len(keys))
		s.dists = make([]uint32, len(keys))
	}
	srcK, dstK := keys, s.keys[:len(keys)]
	srcD, dstD := dists, s.dists[:len(dists)]
	var count [256]int
	for shift := 0; shift < bits.Len32(top); shift += 8 {
		clear(count[:])
		for _, k := range srcK {
			count[byte(k>>shift)]++
		}
		if count[byte(srcK[0]>>shift)] == len(srcK) {
			continue // every key shares this byte: the pass is a no-op
		}
		at := 0
		for b, c := range count {
			count[b] = at
			at += c
		}
		for i, k := range srcK {
			p := &count[byte(k>>shift)]
			dstK[*p] = k
			if dists != nil {
				dstD[*p] = srcD[i]
			}
			*p++
		}
		srcK, dstK = dstK, srcK
		srcD, dstD = dstD, srcD
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(dists, srcD)
	}
}

// insertionSort sorts keys ascending, permuting dists (nil, or as long
// as keys) alongside.
func insertionSort(keys, dists []uint32) {
	for i := 1; i < len(keys); i++ {
		k := keys[i]
		j := i
		for j > 0 && keys[j-1] > k {
			keys[j] = keys[j-1]
			j--
		}
		keys[j] = k
		if dists != nil {
			d := dists[i]
			copy(dists[j+1:i+1], dists[j:i])
			dists[j] = d
		}
	}
}
