package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

func TestRoundTripAllTypes(t *testing.T) {
	msgs := []Message{
		&StatsRequest{},
		&StatsResponse{Nodes: 5, Edges: 6, Landmarks: 7, AvgVicinityE6: 1234567, TotalEntries: 8, QueriesServed: 9},
		&QueryRequest{S: 1, T: 2, DeadlineMS: 250, Budget: 4096, Policy: 1, Flags: QueryWantPath | QueryWantStats},
		&QueryRequest{S: 1, Ts: []uint32{3, 4, ^uint32(0)}, Flags: QueryMany, Parallel: 8},
		&QueryRequest{S: 1, Flags: QueryMany},
		&QueryResponse{Epoch: 7, Lookups: 1, Scanned: 2, Expanded: 3, Fallbacks: 4,
			Items: []QueryItem{{Code: CodeBudget, Dist: 12, Method: 10, Path: []uint32{0, 5, 9}}, {Dist: ^uint32(0)}}},
		&QueryResponse{Items: nil},
		&KPathsRequest{S: 9, T: 10, K: 3, Policy: 2},
		&KPathsResponse{Epoch: 2, Method: 1, Items: []KPathsItem{{Dist: 3, Path: []uint32{9, 4, 10}}}},
		&PingRequest{Token: 42},
		&PingResponse{Token: 43},
		&ReplStatusRequest{},
		&ReplStatusResponse{Role: RoleReplica, Epoch: 17, MinDelta: 3, MaxDelta: 17},
		&ReplStatusResponse{},
		&ErrorResponse{Code: CodeOutOfRange, Message: "node 99 out of range"},
		&ErrorResponse{Code: CodeInternal, Message: ""},
	}
	for _, msg := range msgs {
		got := roundTrip(t, msg)
		if !reflect.DeepEqual(msg, got) {
			t.Errorf("%v: round trip changed %+v -> %+v", msg.WireType(), msg, got)
		}
	}
}

func TestMultipleMessagesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	for i := uint32(0); i < 10; i++ {
		if err := WriteMessage(&buf, &QueryRequest{S: i, T: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint32(0); i < 10; i++ {
		msg, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		req, ok := msg.(*QueryRequest)
		if !ok || req.S != i || req.T != i+1 {
			t.Fatalf("message %d corrupted: %+v", i, msg)
		}
	}
}

func TestRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], MaxFrame+1)
	buf.Write(lenBuf[:])
	if _, err := ReadMessage(&buf); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestRejectsBadVersion(t *testing.T) {
	raw := Marshal(&PingRequest{Token: 1})
	raw[4] = 99 // version byte
	if _, err := ReadMessage(bytes.NewReader(raw)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestRejectsUnknownType(t *testing.T) {
	raw := Marshal(&PingRequest{Token: 1})
	raw[5] = 200 // type byte
	if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
		t.Fatal("unknown type accepted")
	}
}

// TestRetiredTypesDoNotDecode pins that the numbers of the retired
// distance, path and batch frames stay reserved: a well-formed payload
// of one of them is an unknown type, however plausible its body.
func TestRetiredTypesDoNotDecode(t *testing.T) {
	for _, typ := range []byte{1, 2, 3, 4, 11, 12} {
		payload := []byte{Version, typ, 0, 0, 0, 3, 0, 0, 0, 4}
		if msg, err := Unmarshal(payload); err == nil {
			t.Fatalf("retired type %d decoded as %+v", typ, msg)
		}
		if name := MsgType(typ).String(); name != fmt.Sprintf("MsgType(%d)", typ) {
			t.Fatalf("retired type %d still has a name: %s", typ, name)
		}
	}
}

func TestRejectsTruncatedPayloads(t *testing.T) {
	msgs := []Message{
		&QueryRequest{S: 1, T: 2},
		&QueryResponse{Items: []QueryItem{{Dist: 1, Method: 2}}},
		&QueryResponse{Items: []QueryItem{{Method: 1, Path: []uint32{1, 2}}}},
		&KPathsRequest{S: 1, T: 2, K: 1},
		&StatsResponse{},
		&ReplStatusResponse{Role: RoleWriter, Epoch: 2},
		&ErrorResponse{Code: 1, Message: "x"},
	}
	for _, msg := range msgs {
		raw := Marshal(msg)
		// Chop one byte off the payload and fix the length prefix.
		raw = raw[:len(raw)-1]
		binary.BigEndian.PutUint32(raw, uint32(len(raw)-4))
		if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
			t.Errorf("%v: truncated payload accepted", msg.WireType())
		}
	}
}

func TestRejectsShortFrames(t *testing.T) {
	for _, raw := range [][]byte{
		{},
		{0, 0, 0, 1, Version},
		{0, 0, 0, 0},
	} {
		if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
			t.Errorf("short frame %v accepted", raw)
		}
	}
}

// TestPathResponseCountMismatch lies about the path length of a path
// answer (a single-item QueryResponse) in both directions: claiming
// more hops than the frame holds, and fewer, which leaves trailing
// bytes. Both must be rejected.
func TestPathResponseCountMismatch(t *testing.T) {
	m := &QueryResponse{Items: []QueryItem{{Method: 1, Path: []uint32{1, 2, 3}}}}
	for _, lie := range []uint32{99, 1} {
		raw := Marshal(m)
		// Payload starts at offset 4; the item's path count follows the
		// 2-byte header, the 28-byte fixed fields and 7 item bytes.
		binary.BigEndian.PutUint32(raw[4+2+28+7:], lie)
		if _, err := ReadMessage(bytes.NewReader(raw)); err == nil {
			t.Fatalf("path count %d accepted for a 3-hop path", lie)
		}
	}
}

func TestErrorResponseIsError(t *testing.T) {
	var err error = &ErrorResponse{Code: CodeBadRequest, Message: "nope"}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, msg := range seedMessages() {
		if tt := msg.WireType(); strings.HasPrefix(tt.String(), "MsgType(") {
			t.Errorf("no name for type %d", tt)
		}
	}
	if MsgType(250).String() != "MsgType(250)" {
		t.Error("unknown type string")
	}
}

// TestQuickDistanceRequestRoundTrip round-trips the distance request:
// a single-target QueryRequest with no flags.
func TestQuickDistanceRequestRoundTrip(t *testing.T) {
	f := func(s, tt uint32) bool {
		msg := &QueryRequest{S: s, T: tt}
		got, err := Unmarshal(Marshal(msg)[4:])
		if err != nil {
			return false
		}
		req, ok := got.(*QueryRequest)
		return ok && reflect.DeepEqual(req, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickPathResponseRoundTrip round-trips the path answer: a
// QueryResponse whose one item carries a method and a path.
func TestQuickPathResponseRoundTrip(t *testing.T) {
	f := func(method uint8, path []uint32) bool {
		if len(path) > 10000 {
			path = path[:10000]
		}
		msg := &QueryResponse{Items: []QueryItem{{Method: method, Path: path}}}
		got, err := Unmarshal(Marshal(msg)[4:])
		if err != nil {
			return false
		}
		resp, ok := got.(*QueryResponse)
		if !ok || len(resp.Items) != 1 {
			return false
		}
		it := resp.Items[0]
		if it.Method != method || len(it.Path) != len(path) {
			return false
		}
		for i := range path {
			if it.Path[i] != path[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickErrorResponseRoundTrip(t *testing.T) {
	f := func(code uint16, msg string) bool {
		if len(msg) > 4096 {
			msg = msg[:4096]
		}
		m := &ErrorResponse{Code: code, Message: msg}
		got, err := Unmarshal(Marshal(m)[4:])
		if err != nil {
			return false
		}
		resp, ok := got.(*ErrorResponse)
		return ok && resp.Code == code && resp.Message == msg
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMarshalQuery(b *testing.B) {
	msg := &QueryRequest{S: 1, T: 2}
	for i := 0; i < b.N; i++ {
		Marshal(msg)
	}
}

func BenchmarkUnmarshalQuery(b *testing.B) {
	raw := Marshal(&QueryRequest{S: 1, T: 2})[4:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBatchCaps rejects batches (many-target queries) beyond
// MaxBatchTargets and truncated batch payloads without allocating for
// the declared count.
func TestBatchCaps(t *testing.T) {
	// A request header declaring MaxBatchTargets+1 targets.
	header := Marshal(&QueryRequest{S: 1, Flags: QueryMany})[4:]
	payload := binary.BigEndian.AppendUint32(header[:len(header)-4:len(header)-4], MaxBatchTargets+1)
	if _, err := Unmarshal(payload); err == nil {
		t.Fatal("oversized batch count accepted")
	}
	// A count that does not match the payload length.
	payload = binary.BigEndian.AppendUint32(payload[:len(header)-4], 3)
	payload = appendU32(payload, 7) // only one of three targets present
	if _, err := Unmarshal(payload); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// Same for the response side.
	payload = Marshal(&QueryResponse{})[4:]
	binary.BigEndian.PutUint32(payload[2+24:], 2)
	payload = append(payload, 1, 2, 3) // not 2 items of 11 bytes
	if _, err := Unmarshal(payload); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

// TestQueryFrameValidation covers the v2 frames' malformed-input paths:
// truncation at every boundary, target caps, single-target requests
// smuggling a target list, and path-length counts that overrun the
// payload.
func TestQueryFrameValidation(t *testing.T) {
	frame := func(msg Message) []byte { return Marshal(msg)[4:] } // payload incl. header

	// Truncate a valid request at every length.
	req := frame(&QueryRequest{S: 1, Ts: []uint32{2, 3}, Flags: QueryMany})
	for cut := 3; cut < len(req); cut++ {
		if _, err := Unmarshal(req[:cut]); err == nil {
			t.Fatalf("truncated request at %d accepted", cut)
		}
	}
	resp := frame(&QueryResponse{Items: []QueryItem{{Dist: 4, Path: []uint32{1, 2}}}})
	for cut := 3; cut < len(resp); cut++ {
		if _, err := Unmarshal(resp[:cut]); err == nil {
			t.Fatalf("truncated response at %d accepted", cut)
		}
	}

	// A single-target request must not carry targets.
	bad := frame(&QueryRequest{S: 1, Ts: []uint32{2}, Flags: QueryMany})
	bad[17+2] &^= QueryMany // clear the flag, keep the count — offset: 2 header + 17
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("single-target request with targets accepted")
	}

	// Path length claiming more words than the payload holds.
	over := frame(&QueryResponse{Items: []QueryItem{{Path: []uint32{1}}}})
	over[2+28+7] = 0xFF // inflate the item's path count far beyond the frame
	if _, err := Unmarshal(over); !errors.Is(err, ErrTruncated) {
		t.Fatalf("overrun path count: %v", err)
	}

	// Target counts beyond the batch cap are refused without allocating.
	huge := frame(&QueryRequest{S: 1, Flags: QueryMany})
	binary.BigEndian.PutUint32(huge[2+19:], MaxBatchTargets+1)
	if _, err := Unmarshal(huge); err == nil {
		t.Fatal("oversized target count accepted")
	}
}

// TestQueryResponseCountAmplification rejects a tiny frame claiming a
// huge item count before any allocation happens (the header-count-
// trusting pattern the graph reader was hardened against).
func TestQueryResponseCountAmplification(t *testing.T) {
	payload := []byte{Version, byte(TypeQueryResp)}
	payload = append(payload, make([]byte, 24)...) // epoch + cost fields
	payload = appendU32(payload, MaxBatchTargets)  // claims 1M items...
	payload = appendU32(payload, 0)                // ...in 4 spare bytes
	if _, err := Unmarshal(payload); !errors.Is(err, ErrTruncated) {
		t.Fatalf("amplified count: %v, want ErrTruncated", err)
	}
}
