package heap

import (
	"sort"
	"testing"
	"testing/quick"

	"vicinity/internal/xrand"
)

func TestMinBasicOrder(t *testing.T) {
	h := NewMin(10)
	keys := []uint32{5, 3, 8, 1, 9, 2, 7, 0, 6, 4}
	for id, k := range keys {
		h.Push(uint32(id), k)
	}
	if h.Len() != 10 {
		t.Fatalf("Len = %d", h.Len())
	}
	for want := uint32(0); want < 10; want++ {
		_, k := h.Pop()
		if k != want {
			t.Fatalf("Pop key = %d, want %d", k, want)
		}
	}
	if !h.Empty() {
		t.Fatal("heap not empty")
	}
}

func TestMinDecreaseKey(t *testing.T) {
	h := NewMin(4)
	h.Push(0, 100)
	h.Push(1, 50)
	h.Push(2, 75)
	h.Push(0, 10) // decrease
	id, k := h.Pop()
	if id != 0 || k != 10 {
		t.Fatalf("Pop = (%d,%d), want (0,10)", id, k)
	}
	h.Push(1, 200) // increase attempt: must be ignored
	id, k = h.Pop()
	if id != 1 || k != 50 {
		t.Fatalf("Pop = (%d,%d), want (1,50)", id, k)
	}
}

func TestMinContainsKey(t *testing.T) {
	h := NewMin(3)
	h.Push(2, 7)
	if !h.Contains(2) || h.Contains(1) {
		t.Fatal("Contains incorrect")
	}
	if h.Key(2) != 7 {
		t.Fatalf("Key = %d", h.Key(2))
	}
	h.Pop()
	if h.Contains(2) {
		t.Fatal("Contains true after Pop")
	}
}

func TestMinReset(t *testing.T) {
	h := NewMin(5)
	for i := uint32(0); i < 5; i++ {
		h.Push(i, i)
	}
	h.Reset()
	if !h.Empty() || h.Contains(3) {
		t.Fatal("Reset incomplete")
	}
	h.Push(3, 1)
	if id, k := h.Pop(); id != 3 || k != 1 {
		t.Fatalf("Pop after Reset = (%d,%d)", id, k)
	}
}

func TestMinPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on empty heap did not panic")
		}
	}()
	NewMin(1).Pop()
}

func TestMinSortsRandomKeys(t *testing.T) {
	r := xrand.New(42)
	const n = 2000
	h := NewMin(n)
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = r.Uint32n(1 << 20)
		h.Push(uint32(i), keys[i])
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i := 0; i < n; i++ {
		_, k := h.Pop()
		if k != keys[i] {
			t.Fatalf("pop %d: key %d, want %d", i, k, keys[i])
		}
	}
}

func TestMinRandomDecreases(t *testing.T) {
	r := xrand.New(7)
	const n = 500
	h := NewMin(n)
	best := make(map[uint32]uint32)
	for i := 0; i < 5000; i++ {
		id := r.Uint32n(n)
		k := r.Uint32n(1 << 16)
		h.Push(id, k)
		if old, ok := best[id]; !ok || k < old {
			best[id] = k
		}
	}
	if h.Len() != len(best) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(best))
	}
	prev := uint32(0)
	for !h.Empty() {
		id, k := h.Pop()
		if k < prev {
			t.Fatalf("keys not monotone: %d after %d", k, prev)
		}
		if best[id] != k {
			t.Fatalf("id %d popped with key %d, want %d", id, k, best[id])
		}
		delete(best, id)
		prev = k
	}
	if len(best) != 0 {
		t.Fatalf("%d ids never popped", len(best))
	}
}

func TestQuickMinMatchesSort(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 300 {
			raw = raw[:300]
		}
		h := NewMin(len(raw))
		want := make([]uint32, len(raw))
		for i, v := range raw {
			h.Push(uint32(i), uint32(v))
			want[i] = uint32(v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for _, w := range want {
			if _, k := h.Pop(); k != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMinPushPop(b *testing.B) {
	const n = 1 << 16
	h := NewMin(n)
	r := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint32(i) & (n - 1)
		if !h.Contains(id) {
			h.Push(id, r.Uint32n(1<<24))
		}
		if h.Len() > n/2 {
			h.Pop()
		}
	}
}
