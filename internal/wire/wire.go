// Package wire defines the binary protocol spoken between the query
// server (internal/qserver) and clients (internal/qclient).
//
// Framing: every message is a length-prefixed frame
//
//	uint32(BE) payload length | payload
//
// and every payload starts with a fixed two-byte header
//
//	byte version (currently 1) | byte message type
//
// followed by type-specific fields, all big-endian. Variable-length
// fields (paths, strings) carry their own uint32 counts. Frames are
// capped at MaxFrame to bound the damage a malicious or broken peer can
// do; oversized or malformed frames produce errors, never panics.
//
// # Sessions
//
// A connection opens with a Hello frame offering FeatureMux, in the
// plain framing above. The server answers HelloAck echoing the accepted
// feature bits, and from then on every frame in both directions is a
// mux frame:
//
//	uint32(BE) length | uint64(BE) request id | payload
//
// where length covers the id and the payload, and the payload is the
// ordinary versioned payload above. Request ids are chosen by the
// client (any values, typically a counter); the server echoes each
// request's id on its response and may complete requests in any order,
// so a slow batch never head-of-line-blocks the pings and singles
// sharing its connection. Any other opening frame is refused with one
// plain-framed ErrorResponse (CodeBadRequest), after which the server
// closes the connection.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version encoded in every message.
const Version = 1

// MaxFrame bounds the payload size of a single frame (16 MiB leaves
// room for paths of millions of hops while bounding allocation).
const MaxFrame = 16 << 20

// MsgType identifies the payload layout.
type MsgType uint8

// Message types. Requests are odd, their responses follow at +1.
// Types 1-4 and 11-12 carried the retired distance, path and batch
// frames; their numbers stay reserved and no longer decode.
const (
	TypeStatsReq       MsgType = 5
	TypeStatsResp      MsgType = 6
	TypePingReq        MsgType = 7
	TypePingResp       MsgType = 8
	TypeError          MsgType = 9
	TypeQueryReq       MsgType = 13
	TypeQueryResp      MsgType = 14
	TypeHello          MsgType = 15
	TypeHelloAck       MsgType = 16
	TypeReplStatusReq  MsgType = 17
	TypeReplStatusResp MsgType = 18
	TypeKPathsReq      MsgType = 19
	TypeKPathsResp     MsgType = 20
)

// Feature bits negotiated by Hello/HelloAck.
const (
	// FeatureMux switches the connection to multiplexed framing (every
	// frame carries a request id; responses may complete out of order).
	FeatureMux uint32 = 1 << 0
)

// KnownFeatures masks the feature bits this package implements; a
// server acknowledges at most these, so both sides agree on semantics.
const KnownFeatures = FeatureMux

// MaxBatchTargets caps one many-target query's target count. A
// pathless response item takes 11 bytes, so a full response stays
// under MaxFrame; responses that want paths are checked against the
// frame cap by the server.
const MaxBatchTargets = 1 << 20

// MaxDeadlineMS bounds QueryRequest.DeadlineMS (1 hour; anything
// longer is indistinguishable from "no deadline" for a query server).
// Servers reject larger values; clients clamp to it, since a clamped
// hour-long deadline and the caller's longer one behave identically.
const MaxDeadlineMS = 3_600_000

// String returns the wire name of the message type.
func (t MsgType) String() string {
	switch t {
	case TypeStatsReq:
		return "stats-request"
	case TypeStatsResp:
		return "stats-response"
	case TypePingReq:
		return "ping"
	case TypePingResp:
		return "pong"
	case TypeError:
		return "error"
	case TypeQueryReq:
		return "query-request"
	case TypeQueryResp:
		return "query-response"
	case TypeHello:
		return "hello"
	case TypeHelloAck:
		return "hello-ack"
	case TypeReplStatusReq:
		return "repl-status-request"
	case TypeReplStatusResp:
		return "repl-status-response"
	case TypeKPathsReq:
		return "kpaths-request"
	case TypeKPathsResp:
		return "kpaths-response"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Error codes carried by ErrorResponse and by per-item results; the
// wire image of the oracle's error taxonomy (core.ErrNodeRange etc.),
// mapped back to the same sentinels by the client.
const (
	CodeBadRequest  uint16 = 1 // malformed or unknown message
	CodeOutOfRange  uint16 = 2 // node id beyond the graph (ErrNodeRange)
	CodeNotCovered  uint16 = 3 // node outside the oracle's build scope (ErrNotCovered)
	CodeUnavailable uint16 = 4 // server shutting down or overloaded
	CodeInternal    uint16 = 5
	CodeBudget      uint16 = 6 // fallback node budget exhausted (ErrBudgetExceeded)
	CodeCanceled    uint16 = 7 // deadline expired or request canceled (ErrCanceled)
	CodeStale       uint16 = 8 // update against a superseded snapshot (ErrStaleSnapshot)
)

// QueryRequest flag bits.
const (
	// QueryWantPath asks for the path(s) in the response items.
	QueryWantPath uint8 = 1 << 0
	// QueryWantStats asks for the cost counters in the response.
	QueryWantStats uint8 = 1 << 1
	// QueryMany marks a one-to-many request: Ts carries the targets
	// (possibly zero of them) and T is ignored. Without it the request
	// is single-target and Ts must be empty.
	QueryMany uint8 = 1 << 2
)

// ClampU32 narrows a counter for the wire, saturating instead of
// wrapping (negative values read as 0). Client and server share it so
// both sides narrow identically.
func ClampU32(v int) uint32 {
	if v < 0 {
		return 0
	}
	if uint64(v) > uint64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(v)
}

// Message is implemented by every protocol message.
type Message interface {
	// WireType returns the message type tag.
	WireType() MsgType
	// appendPayload appends the type-specific fields after the header.
	appendPayload(dst []byte) []byte
	// parsePayload parses the type-specific fields.
	parsePayload(src []byte) error
}

// StatsRequest asks for oracle statistics.
type StatsRequest struct{}

// StatsResponse carries the headline oracle statistics.
type StatsResponse struct {
	Nodes         uint64
	Edges         uint64
	Landmarks     uint64
	AvgVicinityE6 uint64 // average vicinity size × 1e6 (fixed point)
	TotalEntries  uint64
	QueriesServed uint64
}

// QueryRequest is the v2 request frame: one source, one target (T) or
// many (Ts, with the QueryMany flag), a relative deadline in
// milliseconds (0 = none; the server enforces it inside the fallback
// search loop), a fallback-search node budget (0 = unlimited), the
// fallback policy (core.Policy numbering), the Query* flag bits, and
// the batch parallelism cap (0 or 1 = sequential; the server clamps to
// its own worker ceiling, and answers are bit-identical either way, so
// the knob only trades latency for server CPU).
type QueryRequest struct {
	S          uint32
	T          uint32
	Ts         []uint32
	DeadlineMS uint32
	Budget     uint32
	Policy     uint8
	Flags      uint8
	Parallel   uint8
}

// QueryItem is one target's answer in a QueryResponse. Code 0 means
// success; CodeBudget and CodeCanceled still carry a usable Dist (the
// best-known upper bound, NoDist-filled when none was found).
type QueryItem struct {
	Code   uint16
	Dist   uint32
	Method uint8
	Path   []uint32
}

// QueryResponse answers a QueryRequest: the oracle snapshot epoch, the
// per-request cost counters (zero unless QueryWantStats was set), and
// one item per target (exactly one for single-target requests), in
// request order.
type QueryResponse struct {
	Epoch     uint64
	Lookups   uint32
	Scanned   uint32
	Expanded  uint32
	Fallbacks uint32
	Items     []QueryItem
}

// MaxKPaths caps KPathsRequest.K, the wire image of core.MaxK (the
// two must stay equal; the serving layer asserts it). Parsing rejects
// larger values, so a request accepted anywhere is valid everywhere.
const MaxKPaths = 64

// KPathsRequest flag bits.
const (
	// KPathsWantStats asks for the cost counters in the response.
	// Paths are always wanted — that is what the endpoint is for — so
	// there is no KPathsWantPath bit.
	KPathsWantStats uint8 = 1 << 0
)

// KPathsRequest asks for up to K ranked loopless alternative paths
// from S to T (K in [1, MaxKPaths]; K=1 answers exactly like a
// single-target path query). DeadlineMS, Budget and Policy behave as
// in QueryRequest: one budget pool is charged across the root search
// and every spur search.
type KPathsRequest struct {
	S          uint32
	T          uint32
	K          uint16
	DeadlineMS uint32
	Budget     uint32
	Policy     uint8
	Flags      uint8
}

// KPathsItem is one ranked path in a KPathsResponse. Code 0 means the
// item is a complete ranked path; per-item codes exist so future
// serving layers can degrade individual alternatives without failing
// the request (today servers always send 0 — request-level conditions
// ride KPathsResponse.Code).
type KPathsItem struct {
	Code uint16
	Dist uint32
	Path []uint32
}

// KPathsResponse answers a KPathsRequest: the snapshot epoch, cost
// counters (zero unless KPathsWantStats), how the root path was
// resolved (Method), and the ranked paths in canonical order. Code 0
// means enumeration ran to completion (fewer than K items means no
// more loopless paths exist); CodeBudget/CodeCanceled mark a typed
// partial result whose Items are the paths found before the limit
// fired.
type KPathsResponse struct {
	Epoch     uint64
	Lookups   uint32
	Scanned   uint32
	Expanded  uint32
	Fallbacks uint32
	Code      uint16
	Method    uint8
	Items     []KPathsItem
}

// Hello opens feature negotiation. A client sends it as the first
// frame on a connection; Features is the bitmask of extensions it
// wants and must include FeatureMux, which servers require.
type Hello struct{ Features uint32 }

// HelloAck answers a Hello with the feature bits the server accepted
// (a subset of the request's, always including FeatureMux). Every
// frame after the HelloAck — in both directions — uses mux framing.
type HelloAck struct{ Features uint32 }

// Replication roles carried by ReplStatusResponse.Role (the wire image
// of store.Role).
const (
	RoleStandalone uint8 = 0
	RoleWriter     uint8 = 1
	RoleReplica    uint8 = 2
)

// ReplStatusRequest asks a server for its replication status. Servers
// that predate it answer with a CodeBadRequest error, which clients
// must treat as "standalone, epoch unknown".
type ReplStatusRequest struct{}

// ReplStatusResponse reports a server's place in the replication
// topology: its role, the cluster epoch of the snapshot it serves, and
// the contiguous delta window it retains ([MinDelta, MaxDelta] by
// ToEpoch; both zero when none). Routers use Epoch for read-your-epoch
// placement without paying an HTTP round trip.
type ReplStatusResponse struct {
	Role     uint8
	Epoch    uint64
	MinDelta uint64
	MaxDelta uint64
}

// PingRequest is a liveness probe; the token round-trips.
type PingRequest struct{ Token uint64 }

// PingResponse echoes the PingRequest token.
type PingResponse struct{ Token uint64 }

// ErrorResponse reports a request failure.
type ErrorResponse struct {
	Code    uint16
	Message string
}

// Error implements the error interface so responses can flow as errors.
func (e *ErrorResponse) Error() string {
	return fmt.Sprintf("wire: server error %d: %s", e.Code, e.Message)
}

// WireType implementations.
func (*StatsRequest) WireType() MsgType       { return TypeStatsReq }
func (*StatsResponse) WireType() MsgType      { return TypeStatsResp }
func (*QueryRequest) WireType() MsgType       { return TypeQueryReq }
func (*QueryResponse) WireType() MsgType      { return TypeQueryResp }
func (*Hello) WireType() MsgType              { return TypeHello }
func (*HelloAck) WireType() MsgType           { return TypeHelloAck }
func (*ReplStatusRequest) WireType() MsgType  { return TypeReplStatusReq }
func (*ReplStatusResponse) WireType() MsgType { return TypeReplStatusResp }
func (*KPathsRequest) WireType() MsgType      { return TypeKPathsReq }
func (*KPathsResponse) WireType() MsgType     { return TypeKPathsResp }
func (*PingRequest) WireType() MsgType        { return TypePingReq }
func (*PingResponse) WireType() MsgType       { return TypePingResp }
func (*ErrorResponse) WireType() MsgType      { return TypeError }

var (
	// ErrFrameTooLarge reports a frame beyond MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	// ErrBadVersion reports a version mismatch.
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	// ErrTruncated reports a payload shorter than its type requires.
	ErrTruncated = errors.New("wire: truncated payload")
)

// AppendFrame appends msg as a full frame (length prefix included) to
// dst and returns the extended slice. It is the allocation-free path:
// with a reused dst of sufficient capacity, encoding a fixed-size
// message performs zero allocations (Marshal, by contrast, allocates
// its result).
func AppendFrame(dst []byte, msg Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length backfilled below
	dst = append(dst, Version, byte(msg.WireType()))
	dst = msg.appendPayload(dst)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// AppendMuxFrame appends a multiplexed frame — length prefix, request
// id, then the ordinary versioned payload — to dst. Like AppendFrame
// it allocates nothing once dst has capacity.
func AppendMuxFrame(dst []byte, id uint64, msg Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = appendU64(dst, id)
	dst = append(dst, Version, byte(msg.WireType()))
	dst = msg.appendPayload(dst)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// MuxPayloadLen returns the payload length of the mux frame at the
// start of frame, as built by AppendMuxFrame: the size ReadMuxFrame
// holds to MaxFrame.
func MuxPayloadLen(frame []byte) int {
	return int(binary.BigEndian.Uint32(frame)) - 8
}

// Marshal encodes msg as a full frame (length prefix included).
func Marshal(msg Message) []byte {
	return AppendFrame(nil, msg)
}

// WriteMessage writes one framed message to w.
func WriteMessage(w io.Writer, msg Message) error {
	_, err := w.Write(Marshal(msg))
	return err
}

// grow returns buf resliced to n bytes, reallocating only when its
// capacity is insufficient.
func grow(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]byte, n)
}

// ReadFrame reads one frame from r into buf (grown as needed) and
// returns the payload together with the possibly-reallocated buffer.
// The payload aliases the buffer: it is valid until the next ReadFrame
// call reusing it. Callers that keep the returned buffer across calls
// pay zero allocations per frame in steady state; ReadMessage is the
// convenience wrapper that does not.
func ReadFrame(r io.Reader, buf []byte) (payload, bufOut []byte, err error) {
	// The header is read into the reusable buffer rather than a local
	// array: locals passed through the io.Reader interface escape, and
	// the steady-state hot path must stay at zero allocations.
	buf = grow(buf, 4)
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, buf, err
	}
	size := binary.BigEndian.Uint32(buf[:4])
	if size > MaxFrame {
		return nil, buf, ErrFrameTooLarge
	}
	if size < 2 {
		return nil, buf, ErrTruncated
	}
	buf = grow(buf, int(size))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, err
	}
	return buf, buf, nil
}

// ReadMuxFrame reads one multiplexed frame from r, returning the
// request id and the payload (aliasing buf, as in ReadFrame).
func ReadMuxFrame(r io.Reader, buf []byte) (id uint64, payload, bufOut []byte, err error) {
	buf = grow(buf, 12)
	if _, err := io.ReadFull(r, buf[:12]); err != nil {
		return 0, nil, buf, err
	}
	size := binary.BigEndian.Uint32(buf[:4])
	if size > MaxFrame+8 {
		return 0, nil, buf, ErrFrameTooLarge
	}
	if size < 8+2 {
		return 0, nil, buf, ErrTruncated
	}
	id = binary.BigEndian.Uint64(buf[4:12])
	buf = grow(buf, int(size-8))
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, err
	}
	return id, buf, buf, nil
}

// ReadMessage reads one framed message from r.
func ReadMessage(r io.Reader) (Message, error) {
	payload, _, err := ReadFrame(r, nil)
	if err != nil {
		return nil, err
	}
	return Unmarshal(payload)
}

// newMessage returns the empty message for a wire type tag.
func newMessage(t MsgType) Message {
	switch t {
	case TypeStatsReq:
		return &StatsRequest{}
	case TypeStatsResp:
		return &StatsResponse{}
	case TypeQueryReq:
		return &QueryRequest{}
	case TypeQueryResp:
		return &QueryResponse{}
	case TypeHello:
		return &Hello{}
	case TypeHelloAck:
		return &HelloAck{}
	case TypeReplStatusReq:
		return &ReplStatusRequest{}
	case TypeReplStatusResp:
		return &ReplStatusResponse{}
	case TypeKPathsReq:
		return &KPathsRequest{}
	case TypeKPathsResp:
		return &KPathsResponse{}
	case TypePingReq:
		return &PingRequest{}
	case TypePingResp:
		return &PingResponse{}
	case TypeError:
		return &ErrorResponse{}
	default:
		return nil
	}
}

// Unmarshal decodes a frame payload (without the length prefix).
func Unmarshal(payload []byte) (Message, error) {
	if len(payload) < 2 {
		return nil, ErrTruncated
	}
	if payload[0] != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, payload[0], Version)
	}
	msg := newMessage(MsgType(payload[1]))
	if msg == nil {
		return nil, fmt.Errorf("wire: unknown message type %d", payload[1])
	}
	if err := msg.parsePayload(payload[2:]); err != nil {
		return nil, err
	}
	return msg, nil
}

// UnmarshalInto decodes a frame payload into a caller-owned message of
// a known type, reusing the message's slice capacity (paths, target
// lists, response items) instead of allocating. A payload whose type tag
// differs from msg's is an error. This is the steady-state zero-alloc
// decode path: reuse the same message across frames of one type.
func UnmarshalInto(payload []byte, msg Message) error {
	if len(payload) < 2 {
		return ErrTruncated
	}
	if payload[0] != Version {
		return fmt.Errorf("%w: got %d, want %d", ErrBadVersion, payload[0], Version)
	}
	if got := MsgType(payload[1]); got != msg.WireType() {
		return fmt.Errorf("wire: message type %v, want %v", got, msg.WireType())
	}
	return msg.parsePayload(payload[2:])
}

// --- payload codecs ---

func appendU32(dst []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, v)
}

// reuseU32 reslices dst to n elements, reallocating only when the
// capacity is insufficient; n == 0 decodes as nil so round trips
// preserve empty-slice identity. parsePayload implementations use it
// so UnmarshalInto decodes without allocating in steady state.
func reuseU32(dst []uint32, n int) []uint32 {
	if n == 0 {
		return nil
	}
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]uint32, n)
}

func (m *StatsRequest) appendPayload(dst []byte) []byte { return dst }

func (m *StatsRequest) parsePayload(src []byte) error {
	if len(src) != 0 {
		return ErrTruncated
	}
	return nil
}

func (m *StatsResponse) appendPayload(dst []byte) []byte {
	dst = appendU64(dst, m.Nodes)
	dst = appendU64(dst, m.Edges)
	dst = appendU64(dst, m.Landmarks)
	dst = appendU64(dst, m.AvgVicinityE6)
	dst = appendU64(dst, m.TotalEntries)
	return appendU64(dst, m.QueriesServed)
}

func (m *StatsResponse) parsePayload(src []byte) error {
	if len(src) != 48 {
		return ErrTruncated
	}
	m.Nodes = binary.BigEndian.Uint64(src)
	m.Edges = binary.BigEndian.Uint64(src[8:])
	m.Landmarks = binary.BigEndian.Uint64(src[16:])
	m.AvgVicinityE6 = binary.BigEndian.Uint64(src[24:])
	m.TotalEntries = binary.BigEndian.Uint64(src[32:])
	m.QueriesServed = binary.BigEndian.Uint64(src[40:])
	return nil
}

func (m *QueryRequest) appendPayload(dst []byte) []byte {
	dst = appendU32(dst, m.S)
	dst = appendU32(dst, m.T)
	dst = appendU32(dst, m.DeadlineMS)
	dst = appendU32(dst, m.Budget)
	dst = append(dst, m.Policy, m.Flags, m.Parallel)
	dst = appendU32(dst, uint32(len(m.Ts)))
	for _, t := range m.Ts {
		dst = appendU32(dst, t)
	}
	return dst
}

func (m *QueryRequest) parsePayload(src []byte) error {
	if len(src) < 23 {
		return ErrTruncated
	}
	m.S = binary.BigEndian.Uint32(src)
	m.T = binary.BigEndian.Uint32(src[4:])
	m.DeadlineMS = binary.BigEndian.Uint32(src[8:])
	m.Budget = binary.BigEndian.Uint32(src[12:])
	m.Policy = src[16]
	m.Flags = src[17]
	m.Parallel = src[18]
	count := binary.BigEndian.Uint32(src[19:])
	if count > MaxBatchTargets {
		return fmt.Errorf("wire: query of %d targets exceeds the %d cap", count, MaxBatchTargets)
	}
	if m.Flags&QueryMany == 0 && count != 0 {
		return fmt.Errorf("wire: single-target query carries %d targets", count)
	}
	if uint64(len(src)) != 23+4*uint64(count) {
		return ErrTruncated
	}
	m.Ts = reuseU32(m.Ts, int(count))
	for i := range m.Ts {
		m.Ts[i] = binary.BigEndian.Uint32(src[23+4*i:])
	}
	return nil
}

func (m *QueryResponse) appendPayload(dst []byte) []byte {
	dst = appendU64(dst, m.Epoch)
	dst = appendU32(dst, m.Lookups)
	dst = appendU32(dst, m.Scanned)
	dst = appendU32(dst, m.Expanded)
	dst = appendU32(dst, m.Fallbacks)
	dst = appendU32(dst, uint32(len(m.Items)))
	for _, it := range m.Items {
		dst = binary.BigEndian.AppendUint16(dst, it.Code)
		dst = appendU32(dst, it.Dist)
		dst = append(dst, it.Method)
		dst = appendU32(dst, uint32(len(it.Path)))
		for _, v := range it.Path {
			dst = appendU32(dst, v)
		}
	}
	return dst
}

func (m *QueryResponse) parsePayload(src []byte) error {
	if len(src) < 28 {
		return ErrTruncated
	}
	m.Epoch = binary.BigEndian.Uint64(src)
	m.Lookups = binary.BigEndian.Uint32(src[8:])
	m.Scanned = binary.BigEndian.Uint32(src[12:])
	m.Expanded = binary.BigEndian.Uint32(src[16:])
	m.Fallbacks = binary.BigEndian.Uint32(src[20:])
	count := binary.BigEndian.Uint32(src[24:])
	if count > MaxBatchTargets {
		return fmt.Errorf("wire: query response of %d items exceeds the %d cap", count, MaxBatchTargets)
	}
	// Never allocate from the untrusted count alone: each item needs at
	// least 11 payload bytes, so a tiny frame claiming a huge count is
	// rejected before make() can be used as an allocation amplifier.
	if uint64(count)*11 > uint64(len(src)-28) {
		return ErrTruncated
	}
	off := 28
	switch {
	case count == 0:
		m.Items = nil
	case cap(m.Items) >= int(count):
		m.Items = m.Items[:count]
	default:
		m.Items = make([]QueryItem, count)
	}
	for i := range m.Items {
		if len(src)-off < 11 {
			return ErrTruncated
		}
		it := &m.Items[i]
		it.Code = binary.BigEndian.Uint16(src[off:])
		it.Dist = binary.BigEndian.Uint32(src[off+2:])
		it.Method = src[off+6]
		plen := binary.BigEndian.Uint32(src[off+7:])
		off += 11
		if uint64(plen) > uint64(len(src)-off)/4 {
			return ErrTruncated
		}
		it.Path = reuseU32(it.Path, int(plen))
		for j := range it.Path {
			it.Path[j] = binary.BigEndian.Uint32(src[off+4*j:])
		}
		off += 4 * int(plen)
	}
	if off != len(src) {
		return ErrTruncated
	}
	return nil
}

func (m *KPathsRequest) appendPayload(dst []byte) []byte {
	dst = appendU32(dst, m.S)
	dst = appendU32(dst, m.T)
	dst = appendU32(dst, m.DeadlineMS)
	dst = appendU32(dst, m.Budget)
	dst = binary.BigEndian.AppendUint16(dst, m.K)
	return append(dst, m.Policy, m.Flags)
}

func (m *KPathsRequest) parsePayload(src []byte) error {
	if len(src) != 20 {
		return ErrTruncated
	}
	m.S = binary.BigEndian.Uint32(src)
	m.T = binary.BigEndian.Uint32(src[4:])
	m.DeadlineMS = binary.BigEndian.Uint32(src[8:])
	m.Budget = binary.BigEndian.Uint32(src[12:])
	m.K = binary.BigEndian.Uint16(src[16:])
	m.Policy = src[18]
	m.Flags = src[19]
	if m.K == 0 || m.K > MaxKPaths {
		return fmt.Errorf("wire: kpaths K %d outside [1, %d]", m.K, MaxKPaths)
	}
	return nil
}

func (m *KPathsResponse) appendPayload(dst []byte) []byte {
	dst = appendU64(dst, m.Epoch)
	dst = appendU32(dst, m.Lookups)
	dst = appendU32(dst, m.Scanned)
	dst = appendU32(dst, m.Expanded)
	dst = appendU32(dst, m.Fallbacks)
	dst = binary.BigEndian.AppendUint16(dst, m.Code)
	dst = append(dst, m.Method)
	dst = appendU32(dst, uint32(len(m.Items)))
	for _, it := range m.Items {
		dst = binary.BigEndian.AppendUint16(dst, it.Code)
		dst = appendU32(dst, it.Dist)
		dst = appendU32(dst, uint32(len(it.Path)))
		for _, v := range it.Path {
			dst = appendU32(dst, v)
		}
	}
	return dst
}

func (m *KPathsResponse) parsePayload(src []byte) error {
	if len(src) < 31 {
		return ErrTruncated
	}
	m.Epoch = binary.BigEndian.Uint64(src)
	m.Lookups = binary.BigEndian.Uint32(src[8:])
	m.Scanned = binary.BigEndian.Uint32(src[12:])
	m.Expanded = binary.BigEndian.Uint32(src[16:])
	m.Fallbacks = binary.BigEndian.Uint32(src[20:])
	m.Code = binary.BigEndian.Uint16(src[24:])
	m.Method = src[26]
	count := binary.BigEndian.Uint32(src[27:])
	if count > MaxKPaths {
		return fmt.Errorf("wire: kpaths response of %d items exceeds the %d cap", count, MaxKPaths)
	}
	// The item count is small by construction, but keep the untrusted-
	// count posture anyway: each item needs at least 10 payload bytes.
	if uint64(count)*10 > uint64(len(src)-31) {
		return ErrTruncated
	}
	off := 31
	switch {
	case count == 0:
		m.Items = nil
	case cap(m.Items) >= int(count):
		m.Items = m.Items[:count]
	default:
		m.Items = make([]KPathsItem, count)
	}
	for i := range m.Items {
		if len(src)-off < 10 {
			return ErrTruncated
		}
		it := &m.Items[i]
		it.Code = binary.BigEndian.Uint16(src[off:])
		it.Dist = binary.BigEndian.Uint32(src[off+2:])
		plen := binary.BigEndian.Uint32(src[off+6:])
		off += 10
		if uint64(plen) > uint64(len(src)-off)/4 {
			return ErrTruncated
		}
		it.Path = reuseU32(it.Path, int(plen))
		for j := range it.Path {
			it.Path[j] = binary.BigEndian.Uint32(src[off+4*j:])
		}
		off += 4 * int(plen)
	}
	if off != len(src) {
		return ErrTruncated
	}
	return nil
}

func (m *Hello) appendPayload(dst []byte) []byte { return appendU32(dst, m.Features) }

func (m *Hello) parsePayload(src []byte) error {
	if len(src) != 4 {
		return ErrTruncated
	}
	m.Features = binary.BigEndian.Uint32(src)
	return nil
}

func (m *HelloAck) appendPayload(dst []byte) []byte { return appendU32(dst, m.Features) }

func (m *HelloAck) parsePayload(src []byte) error {
	if len(src) != 4 {
		return ErrTruncated
	}
	m.Features = binary.BigEndian.Uint32(src)
	return nil
}

func (m *ReplStatusRequest) appendPayload(dst []byte) []byte { return dst }

func (m *ReplStatusRequest) parsePayload(src []byte) error {
	if len(src) != 0 {
		return ErrTruncated
	}
	return nil
}

func (m *ReplStatusResponse) appendPayload(dst []byte) []byte {
	dst = append(dst, m.Role)
	dst = appendU64(dst, m.Epoch)
	dst = appendU64(dst, m.MinDelta)
	return appendU64(dst, m.MaxDelta)
}

func (m *ReplStatusResponse) parsePayload(src []byte) error {
	if len(src) != 25 {
		return ErrTruncated
	}
	m.Role = src[0]
	m.Epoch = binary.BigEndian.Uint64(src[1:])
	m.MinDelta = binary.BigEndian.Uint64(src[9:])
	m.MaxDelta = binary.BigEndian.Uint64(src[17:])
	return nil
}

func (m *PingRequest) appendPayload(dst []byte) []byte { return appendU64(dst, m.Token) }

func (m *PingRequest) parsePayload(src []byte) error {
	if len(src) != 8 {
		return ErrTruncated
	}
	m.Token = binary.BigEndian.Uint64(src)
	return nil
}

func (m *PingResponse) appendPayload(dst []byte) []byte { return appendU64(dst, m.Token) }

func (m *PingResponse) parsePayload(src []byte) error {
	if len(src) != 8 {
		return ErrTruncated
	}
	m.Token = binary.BigEndian.Uint64(src)
	return nil
}

func (m *ErrorResponse) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, m.Code)
	dst = appendU32(dst, uint32(len(m.Message)))
	return append(dst, m.Message...)
}

func (m *ErrorResponse) parsePayload(src []byte) error {
	if len(src) < 6 {
		return ErrTruncated
	}
	m.Code = binary.BigEndian.Uint16(src)
	n := binary.BigEndian.Uint32(src[2:])
	if uint64(len(src)) != 6+uint64(n) {
		return ErrTruncated
	}
	m.Message = string(src[6:])
	return nil
}
