package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// seedMessages covers every message type, and every query shape —
// distance, path and many-target — in both directions.
func seedMessages() []Message {
	return []Message{
		&PingRequest{Token: 1},
		&PingResponse{Token: 1},
		&QueryRequest{S: 3, T: 4},
		&QueryResponse{Items: []QueryItem{{Dist: 5, Method: 1}}},
		&QueryRequest{S: 6, T: 7, Flags: QueryWantPath},
		&QueryResponse{Epoch: 2, Items: []QueryItem{{Dist: 2, Method: 1, Path: []uint32{6, 8, 7}}}},
		&StatsRequest{},
		&StatsResponse{Nodes: 10, Edges: 20, Landmarks: 2, AvgVicinityE6: 3e6, TotalEntries: 40, QueriesServed: 5},
		&QueryRequest{S: 1, Ts: []uint32{2, 3}, Flags: QueryMany | QueryWantStats, Parallel: 2},
		&QueryResponse{Lookups: 3, Items: []QueryItem{{Dist: 1, Method: 2}, {Code: CodeOutOfRange, Dist: ^uint32(0)}}},
		&ErrorResponse{Code: CodeBadRequest, Message: "bad"},
		&QueryRequest{S: 1, T: 2, DeadlineMS: 100, Budget: 50, Policy: 1, Flags: QueryWantPath},
		&QueryResponse{Epoch: 1, Items: []QueryItem{{Dist: 4, Method: 1, Path: []uint32{1, 5, 2}}}},
		&Hello{Features: FeatureMux},
		&HelloAck{Features: FeatureMux},
		&ReplStatusRequest{},
		&ReplStatusResponse{Role: RoleWriter, Epoch: 9, MinDelta: 2, MaxDelta: 9},
		&KPathsRequest{S: 1, T: 2, K: 4, DeadlineMS: 100, Budget: 50, Policy: 1, Flags: KPathsWantStats},
		&KPathsResponse{Epoch: 1, Method: 1, Items: []KPathsItem{{Dist: 4, Path: []uint32{1, 5, 2}}, {Dist: 5, Path: []uint32{1, 3, 5, 2}}}},
	}
}

// FuzzUnmarshal asserts decode never panics and that anything accepted
// re-encodes to a payload that decodes back to the same message.
func FuzzUnmarshal(f *testing.F) {
	for _, msg := range seedMessages() {
		f.Add(Marshal(msg)[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{Version})
	f.Add([]byte{Version, 99})
	f.Fuzz(func(t *testing.T, payload []byte) {
		msg, err := Unmarshal(payload)
		if err != nil {
			return
		}
		re := Marshal(msg)[4:]
		got, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if !reflect.DeepEqual(msg, got) {
			t.Fatalf("re-encode round trip changed %+v -> %+v", msg, got)
		}
		// The typed decoder must agree with the generic one.
		into := newMessage(msg.WireType())
		if err := UnmarshalInto(payload, into); err != nil {
			t.Fatalf("UnmarshalInto rejected what Unmarshal accepted: %v", err)
		}
		if !reflect.DeepEqual(msg, into) {
			t.Fatalf("UnmarshalInto disagrees: %+v vs %+v", msg, into)
		}
	})
}

// FuzzKPathsFrame focuses the decoder of the two k-paths frames: any
// payload either side accepts must re-encode to the IDENTICAL bytes
// (the frames have no redundant encodings, so decode→re-encode is the
// identity on accepted inputs), and the typed reusing decoder must
// agree with the allocating one.
func FuzzKPathsFrame(f *testing.F) {
	f.Add(Marshal(&KPathsRequest{S: 1, T: 2, K: 1})[4:])
	f.Add(Marshal(&KPathsRequest{S: 9, T: 0, K: MaxKPaths, DeadlineMS: MaxDeadlineMS, Budget: 1 << 20, Policy: 3, Flags: KPathsWantStats})[4:])
	f.Add(Marshal(&KPathsResponse{})[4:])
	f.Add(Marshal(&KPathsResponse{Epoch: 7, Lookups: 1, Scanned: 2, Expanded: 3, Fallbacks: 4, Code: CodeBudget, Method: 2,
		Items: []KPathsItem{{Dist: 3, Path: []uint32{0, 4, 9}}}})[4:])
	f.Add(Marshal(&KPathsResponse{Items: []KPathsItem{{Code: CodeNotCovered, Dist: ^uint32(0)}, {Dist: 1, Path: []uint32{2, 3}}}})[4:])
	f.Add([]byte{Version, byte(TypeKPathsReq)})
	f.Add([]byte{Version, byte(TypeKPathsResp), 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) >= 2 && payload[1] != byte(TypeKPathsReq) && payload[1] != byte(TypeKPathsResp) {
			return // keep the corpus on the frames under test
		}
		msg, err := Unmarshal(payload)
		if err != nil {
			return
		}
		re := Marshal(msg)[4:]
		if !bytes.Equal(re, payload) {
			t.Fatalf("decode→re-encode not identical:\n in: %x\nout: %x", payload, re)
		}
		into := newMessage(msg.WireType())
		if err := UnmarshalInto(payload, into); err != nil {
			t.Fatalf("UnmarshalInto rejected what Unmarshal accepted: %v", err)
		}
		if !reflect.DeepEqual(msg, into) {
			t.Fatalf("UnmarshalInto disagrees: %+v vs %+v", msg, into)
		}
	})
}

// FuzzMuxFrame drives the id-carrying frame reader with raw stream
// bytes: it must never panic, and any frame it accepts must survive
// reframing with the same id and payload.
func FuzzMuxFrame(f *testing.F) {
	for i, msg := range seedMessages() {
		f.Add(AppendMuxFrame(nil, uint64(i)<<32|7, msg))
	}
	f.Add([]byte{0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 1, 1})
	f.Add(bytes.Repeat([]byte{0xff}, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		id, payload, _, err := ReadMuxFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		msg, err := Unmarshal(payload)
		if err != nil {
			return
		}
		frame := AppendMuxFrame(nil, id, msg)
		id2, p2, _, err := ReadMuxFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("reframed frame rejected: %v", err)
		}
		if id2 != id {
			t.Fatalf("id changed across reframe: %d -> %d", id, id2)
		}
		got, err := Unmarshal(p2)
		if err != nil {
			t.Fatalf("reframed payload rejected: %v", err)
		}
		if !reflect.DeepEqual(msg, got) {
			t.Fatalf("reframe changed %+v -> %+v", msg, got)
		}
	})
}
