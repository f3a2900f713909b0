package vicinity

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vicinity/internal/core"
)

// seedOracleBytes builds a small oracle once and serializes it — the
// well-formed starting point the fuzzer mutates. Kept tiny: corpus
// entry size drives the cost of the engine's minimization passes.
var seedOracleBytes = sync.OnceValue(func() []byte {
	g := GenerateSocial(40, 2, 1)
	o, err := Build(g, &Options{Seed: 3})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := core.WriteOracle(&buf, oracleCore(o)); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// oracleCore unwraps the current core snapshot for test serialization.
func oracleCore(o *Oracle) *core.Oracle { return o.cur().o }

// FuzzLoadOracle feeds mutated oracle files to the public loader.
// Mutated headers, truncated sections and bit-flipped payloads must
// produce an error — never a panic, out-of-memory allocation or a
// loaded oracle that panics on its first queries.
func FuzzLoadOracle(f *testing.F) {
	valid := seedOracleBytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // truncated mid-trailer
	f.Add(valid[:100])          // truncated mid-section
	f.Add([]byte("VCO1"))       // bare magic
	f.Add([]byte{})
	for _, pos := range []int{6, 40, len(valid) / 2, len(valid) - 20} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x10
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.vco")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		o, err := LoadOracle(path)
		if err != nil {
			return // rejection is the expected outcome for mutants
		}
		// The checksum and structural validation accepted the file: the
		// oracle must now behave, not panic.
		g := o.Graph()
		n := uint32(g.NumNodes())
		if n == 0 {
			return
		}
		for _, pair := range [][2]uint32{{0, n - 1}, {n / 2, 0}, {n - 1, n / 2}} {
			if _, _, err := o.Distance(pair[0], pair[1]); err != nil {
				continue
			}
			o.Path(pair[0], pair[1])
		}
		// The one-to-many engine indexes its mark array by boundary and
		// vicinity keys, a path the pair queries above never reach.
		o.Query(context.Background(), Request{S: 0, Ts: []uint32{0, n / 2, n - 1}})
		o.Stats()
	})
}
