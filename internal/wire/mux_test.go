package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	for _, msg := range []Message{
		&Hello{Features: FeatureMux},
		&Hello{Features: 0},
		&Hello{Features: ^uint32(0)},
		&HelloAck{Features: FeatureMux},
		&HelloAck{Features: 0},
	} {
		got := roundTrip(t, msg)
		if !reflect.DeepEqual(msg, got) {
			t.Errorf("%v: round trip changed %+v -> %+v", msg.WireType(), msg, got)
		}
	}
}

func TestHelloTruncated(t *testing.T) {
	for _, raw := range [][]byte{
		{Version, byte(TypeHello)},
		{Version, byte(TypeHello), 1},
		{Version, byte(TypeHello), 1, 2, 3, 4, 5},
		{Version, byte(TypeHelloAck), 1, 2, 3},
	} {
		if _, err := Unmarshal(raw); !errors.Is(err, ErrTruncated) {
			t.Errorf("payload %v: err = %v, want ErrTruncated", raw, err)
		}
	}
}

// TestMuxFrameRoundTrip checks that every message type survives mux
// framing with its request id, including out-of-order interleavings on
// one stream.
func TestMuxFrameRoundTrip(t *testing.T) {
	msgs := []Message{
		&PingRequest{Token: 7},
		&QueryRequest{S: 1, T: 2},
		&QueryRequest{S: 3, Ts: []uint32{4, 5}, Flags: QueryMany},
		&QueryResponse{Epoch: 9, Items: []QueryItem{{Dist: 3, Path: []uint32{3, 1}}}},
		&ErrorResponse{Code: CodeBudget, Message: "x"},
	}
	var buf bytes.Buffer
	ids := []uint64{42, 0, ^uint64(0), 7, 7} // ids need not be unique or ordered
	var frame []byte
	for i, msg := range msgs {
		frame = AppendMuxFrame(frame[:0], ids[i], msg)
		buf.Write(frame)
	}
	var rbuf []byte
	for i, want := range msgs {
		id, payload, nb, err := ReadMuxFrame(&buf, rbuf)
		rbuf = nb
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if id != ids[i] {
			t.Fatalf("frame %d: id %d, want %d", i, id, ids[i])
		}
		got, err := Unmarshal(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("frame %d: %+v -> %+v", i, want, got)
		}
	}
}

// TestMuxPayloadLen pins that MuxPayloadLen reads back the payload
// size of a frame AppendMuxFrame built, the size ReadMuxFrame caps.
func TestMuxPayloadLen(t *testing.T) {
	for _, msg := range []Message{
		&PingRequest{Token: 7},
		&QueryResponse{Epoch: 9, Items: []QueryItem{{Dist: 3, Path: []uint32{3, 1}}}},
		&ErrorResponse{Code: CodeBudget, Message: "x"},
	} {
		frame := AppendMuxFrame(nil, 42, msg)
		_, payload, _, err := ReadMuxFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := MuxPayloadLen(frame); got != len(payload) {
			t.Errorf("%v: MuxPayloadLen %d, payload is %d bytes", msg.WireType(), got, len(payload))
		}
	}
}

func TestMuxFrameRejectsOversizedAndShort(t *testing.T) {
	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrame+8+1)
	if _, _, _, err := ReadMuxFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized: %v", err)
	}
	binary.BigEndian.PutUint32(hdr[:4], 9) // id (8) + less than a header (2)
	if _, _, _, err := ReadMuxFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short: %v", err)
	}
	// Truncated stream: header promises more payload than arrives.
	frame := AppendMuxFrame(nil, 1, &PingRequest{Token: 9})
	if _, _, _, err := ReadMuxFrame(bytes.NewReader(frame[:len(frame)-3]), nil); err == nil {
		t.Fatal("truncated mux frame accepted")
	}
}

// TestAppendFrameMatchesMarshal pins that the zero-alloc encoder and
// the allocating one produce identical bytes, and that appending to a
// non-empty dst leaves the prefix intact.
func TestAppendFrameMatchesMarshal(t *testing.T) {
	msgs := []Message{
		&PingRequest{Token: 99},
		&KPathsRequest{S: 5, T: 6, K: 2},
		&QueryRequest{S: 1, T: 2, DeadlineMS: 9, Budget: 10, Policy: 1, Flags: QueryWantStats},
		&QueryResponse{Epoch: 3, Items: []QueryItem{{Dist: 1}, {Code: CodeCanceled, Dist: ^uint32(0)}}},
		&QueryResponse{Items: []QueryItem{{Dist: 4, Method: 2, Path: []uint32{5, 7}}}},
		&Hello{Features: FeatureMux},
	}
	for _, msg := range msgs {
		want := Marshal(msg)
		got := AppendFrame([]byte("prefix"), msg)
		if !bytes.Equal(got[:6], []byte("prefix")) {
			t.Fatalf("%v: prefix clobbered", msg.WireType())
		}
		if !bytes.Equal(got[6:], want) {
			t.Fatalf("%v: AppendFrame diverges from Marshal", msg.WireType())
		}
	}
}

// TestUnmarshalInto checks typed decode, type mismatch rejection, and
// slice reuse across repeated decodes.
func TestUnmarshalInto(t *testing.T) {
	payload := Marshal(&QueryRequest{S: 8, T: 9})[4:]
	var req QueryRequest
	if err := UnmarshalInto(payload, &req); err != nil {
		t.Fatal(err)
	}
	if req.S != 8 || req.T != 9 {
		t.Fatalf("decoded %+v", req)
	}
	var wrong PingRequest
	if err := UnmarshalInto(payload, &wrong); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if err := UnmarshalInto(payload[:1], &req); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short payload: %v", err)
	}
	bad := append([]byte{}, payload...)
	bad[0] = 99
	if err := UnmarshalInto(bad, &req); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}

	// Slice reuse: a big decode followed by a small one must shrink the
	// visible slices without stale tails, and reuse the backing arrays.
	var resp QueryResponse
	big := Marshal(&QueryResponse{Items: []QueryItem{
		{Dist: 1, Path: []uint32{1, 2, 3, 4}},
		{Dist: 2, Path: []uint32{9, 8}},
	}})[4:]
	if err := UnmarshalInto(big, &resp); err != nil {
		t.Fatal(err)
	}
	backing := &resp.Items[0].Path[0]
	small := Marshal(&QueryResponse{Items: []QueryItem{{Dist: 7, Path: []uint32{5, 6}}}})[4:]
	if err := UnmarshalInto(small, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 1 || !reflect.DeepEqual(resp.Items[0].Path, []uint32{5, 6}) {
		t.Fatalf("reused decode wrong: %+v", resp.Items)
	}
	if backing != &resp.Items[0].Path[0] {
		t.Fatal("path backing array was reallocated despite sufficient capacity")
	}
	// And a pathless decode must not leak the previous path.
	noPath := Marshal(&QueryResponse{Items: []QueryItem{{Dist: 3}}})[4:]
	if err := UnmarshalInto(noPath, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Items[0].Path != nil {
		t.Fatalf("stale path survived: %v", resp.Items[0].Path)
	}
}

// TestHotPathZeroAlloc is the codec's allocation gate: ping,
// single-target query and k=1 kpaths frames must encode and decode with
// zero allocations per operation in steady state (reused buffers and
// messages), matching the 0 allocs/op standard the query path already
// meets.
func TestHotPathZeroAlloc(t *testing.T) {
	type hot struct {
		name string
		msg  Message
		into Message
	}
	cases := []hot{
		{"ping", &PingRequest{Token: 77}, &PingRequest{}},
		{"query-req", &QueryRequest{S: 1, T: 2, DeadlineMS: 5, Budget: 100, Policy: 1, Flags: QueryWantStats}, &QueryRequest{}},
		{"query-resp", &QueryResponse{Epoch: 4, Items: []QueryItem{{Dist: 11, Method: 2}}}, &QueryResponse{}},
		// The k=1 kpaths frames must meet the same gate: a K request is
		// fixed-size, and a one-item response reuses its path backing.
		{"kpaths-req", &KPathsRequest{S: 1, T: 2, K: 1, DeadlineMS: 5, Budget: 100, Policy: 1, Flags: KPathsWantStats}, &KPathsRequest{}},
		{"kpaths-resp", &KPathsResponse{Epoch: 4, Method: 2, Items: []KPathsItem{{Dist: 2, Path: []uint32{1, 9, 2}}}}, &KPathsResponse{}},
	}
	for _, c := range cases {
		buf := make([]byte, 0, 256)
		if n := testing.AllocsPerRun(200, func() {
			buf = AppendFrame(buf[:0], c.msg)
		}); n != 0 {
			t.Errorf("%s: AppendFrame allocates %.1f/op", c.name, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			buf = AppendMuxFrame(buf[:0], 12345, c.msg)
		}); n != 0 {
			t.Errorf("%s: AppendMuxFrame allocates %.1f/op", c.name, n)
		}
		payload := Marshal(c.msg)[4:]
		// Warm the reusable message once, then demand steady-state zero.
		if err := UnmarshalInto(payload, c.into); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := UnmarshalInto(payload, c.into); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: UnmarshalInto allocates %.1f/op", c.name, n)
		}
		// Framed read with a retained buffer.
		frame := Marshal(c.msg)
		r := bytes.NewReader(frame)
		rbuf := make([]byte, 0, 256)
		if n := testing.AllocsPerRun(200, func() {
			r.Reset(frame)
			var (
				payload []byte
				err     error
			)
			payload, rbuf, err = ReadFrame(r, rbuf)
			if err != nil {
				t.Fatal(err)
			}
			if err := UnmarshalInto(payload, c.into); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: ReadFrame+UnmarshalInto allocates %.1f/op", c.name, n)
		}
	}
}

func BenchmarkAppendMuxFrameQuery(b *testing.B) {
	msg := &QueryRequest{S: 1, T: 2, Budget: 100}
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendMuxFrame(buf[:0], uint64(i), msg)
	}
}

func BenchmarkUnmarshalIntoQueryResp(b *testing.B) {
	payload := Marshal(&QueryResponse{Epoch: 1, Items: []QueryItem{{Dist: 5}}})[4:]
	var msg QueryResponse
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := UnmarshalInto(payload, &msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadMuxFrame(b *testing.B) {
	frame := AppendMuxFrame(nil, 9, &QueryResponse{Epoch: 1, Items: []QueryItem{{Dist: 4, Method: 1}}})
	r := bytes.NewReader(frame)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		_, _, nb, err := ReadMuxFrame(r, buf)
		if err != nil && err != io.EOF {
			b.Fatal(err)
		}
		buf = nb
	}
}
