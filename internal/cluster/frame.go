package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"apichecker/internal/apk"
	"apichecker/internal/core"
	"apichecker/internal/pipeline"
	"apichecker/internal/vcache"
	"apichecker/internal/wire"
)

// The claim frame: the 200 body of POST /v1/cluster/claim. Little-endian,
// Content-Length-exact, the archive last so neither side copies or
// re-encodes it:
//
//	[0]   version   byte    frameVersion
//	[1]   flags     byte    bit0 drained (the frame ends here); others reserved
//	[2]   seq       int64
//	[10]  token     uint64  lease token; heartbeat/ack/nack echo it
//	[18]  attempts  uint32
//	[22]  ttl       int64   lease TTL, milliseconds (0: never expires)
//	[30]  deadline  int64   absolute vet deadline, Unix nanoseconds (0: unbounded)
//	[38]  gen       uint64  coordinator's generation swap counter
//	[46]  key       uint16 length + bytes  content digest
//	      model     uint16 length + bytes  serving model digest
//	      payload   the rest of the body   raw archive bytes
//
// The request bodies, in the same style. The claim request:
//
//	[0]   version   byte    frameVersion
//	[1]   flags     byte    bit0 an ack follows; others reserved
//	[2]   wait      int64   long-poll budget, milliseconds (<= 0: claim nothing)
//	[10]  node      uint16 length + bytes
//	      the ack, when flagged:
//	      seq       int64
//	      token     uint64
//	      wall      int64   node-side vet cost, nanoseconds
//	      outcome   byte    vcache.Outcome
//	      flags     byte    bit0 a verdict follows, bit1 the error is a missed deadline
//	      model     uint16 length + bytes  the generation the node vetted under
//	      error     uint32 length + bytes  empty when the vet succeeded
//	      verdict   pipeline.AppendVerdict's layout, when flagged; Score finite
//
// The heartbeat and nack bodies:
//
//	[0]   version   byte    frameVersion
//	[1]   seq       int64
//	[9]   token     uint64
//	[17]  node      uint16 length + bytes
//	      cause     uint32 length + bytes  the nack's reason; empty on a heartbeat
//
// Decoding is strict — unknown version, reserved flag bits, an outcome
// vcache does not define, a length that runs past the bytes present, or
// anything after the last field (after a drained header) is an error — so
// every accepted frame and body re-encodes to the bytes it came from.
// Version 3 sent the request bodies as JSON; the coordinator names that
// when one arrives.
const (
	frameVersion = 4
	frameDrained = 1 << 0
	frameFixed   = 46

	requestAck  = 1 << 0 // claim request flags
	ackVerdict  = 1 << 0 // ack flags
	ackDeadline = 1 << 1

	// maxName is the longest node name or digest a uint16 length carries.
	maxName = 0xFFFF

	// maxFrameBytes is the largest claim body a worker will read: the
	// largest archive the decode stage accepts plus the largest header.
	maxFrameBytes = apk.MaxDecodedBytes + frameFixed + 2*(2+maxName)
)

var (
	errBadFrame = errors.New("cluster: bad claim frame")
	errBadBody  = errors.New("cluster: bad request body")
)

// claim is one decoded claim frame: a leased submission, or the drained
// signal (the queue has settled everything and hands out no more work).
type claim struct {
	Drained bool

	Seq              int64
	Token            uint64
	Attempts         uint32
	LeaseTTLMS       int64
	DeadlineUnixNano int64
	Generation       uint64
	Key              string
	ModelDigest      string // the artifact the node must serve before it vets this claim

	// Payload is the raw archive. Decoded, it aliases the frame buffer.
	Payload []byte
}

// appendClaimHeader appends cl's frame, up to but not including the
// payload, to dst; the coordinator writes Item.Payload straight after it.
func appendClaimHeader(dst []byte, cl *claim) ([]byte, error) {
	if cl.Drained {
		return append(dst, frameVersion, frameDrained), nil
	}
	if len(cl.Key) > maxName || len(cl.ModelDigest) > maxName {
		return dst, fmt.Errorf("%w: %d-byte key, %d-byte model digest: each is bounded by 65535",
			errBadFrame, len(cl.Key), len(cl.ModelDigest))
	}
	le := binary.LittleEndian
	dst = append(dst, frameVersion, 0)
	dst = le.AppendUint64(dst, uint64(cl.Seq))
	dst = le.AppendUint64(dst, cl.Token)
	dst = le.AppendUint32(dst, cl.Attempts)
	dst = le.AppendUint64(dst, uint64(cl.LeaseTTLMS))
	dst = le.AppendUint64(dst, uint64(cl.DeadlineUnixNano))
	dst = le.AppendUint64(dst, cl.Generation)
	return appendString16(appendString16(dst, cl.Key), cl.ModelDigest), nil
}

// appendString16 appends s after its length as a uint16; s is at most
// maxName bytes.
func appendString16(dst []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(dst, uint16(len(s))), s...)
}

// decodeClaim reads one frame. It allocates only the two digest strings,
// each after its declared length has been checked against the bytes
// present; cl.Payload is the tail of b.
func decodeClaim(b []byte) (*claim, error) {
	r := wire.NewReader(b)
	readVersion(&r)
	cl := &claim{Drained: r.Flags(frameDrained) == frameDrained}
	if !cl.Drained {
		*cl = claim{
			Seq:              int64(r.U64()),
			Token:            r.U64(),
			Attempts:         r.U32(),
			LeaseTTLMS:       int64(r.U64()),
			DeadlineUnixNano: int64(r.U64()),
			Generation:       r.U64(),
			Key:              r.String(int(r.U16())),
			ModelDigest:      r.String(int(r.U16())),
			Payload:          r.Rest(),
		}
	}
	r.End()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", errBadFrame, err)
	}
	return cl, nil
}

// appendClaimRequest appends the claim body; ack is an encoded ackRequest
// (appendAck) or empty.
func appendClaimRequest(dst []byte, node string, waitMS int64, ack []byte) []byte {
	var flags byte
	if len(ack) > 0 {
		flags = requestAck
	}
	dst = binary.LittleEndian.AppendUint64(append(dst, frameVersion, flags), uint64(waitMS))
	return append(appendString16(dst, node), ack...)
}

// appendAck appends one ackRequest.
func appendAck(dst []byte, a *ackRequest) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(a.Seq))
	dst = le.AppendUint64(dst, a.Token)
	dst = le.AppendUint64(dst, uint64(a.WallNS))
	var flags byte
	if a.Verdict != nil {
		flags |= ackVerdict
	}
	if a.Deadline {
		flags |= ackDeadline
	}
	dst = wire.AppendString32(appendString16(append(dst, byte(a.Outcome), flags), a.ModelDigest), a.Error)
	if a.Verdict != nil {
		dst = pipeline.AppendVerdict(dst, a.Verdict)
	}
	return dst
}

// appendLeaseRequest appends a heartbeat (cause empty) or nack body.
func appendLeaseRequest(dst []byte, node string, seq int64, token uint64, cause string) []byte {
	dst = binary.LittleEndian.AppendUint64(append(dst, frameVersion), uint64(seq))
	dst = binary.LittleEndian.AppendUint64(dst, token)
	return wire.AppendString32(appendString16(dst, node), cause)
}

// decodeClaimRequest reads a claim body. Its strings are copies: nothing
// decoded aliases b.
func decodeClaimRequest(b []byte) (claimRequest, error) {
	r := wire.NewReader(b)
	readVersion(&r)
	flags := r.Flags(requestAck)
	req := claimRequest{WaitMS: int64(r.U64()), Node: r.String(int(r.U16()))}
	if flags&requestAck != 0 {
		a := &ackRequest{Seq: int64(r.U64()), Token: r.U64(), WallNS: int64(r.U64())}
		if a.Outcome = vcache.Outcome(r.U8()); a.Outcome > vcache.OutcomeCoalesced {
			r.Fail(fmt.Errorf("cache outcome %d", a.Outcome))
		}
		flags := r.Flags(ackVerdict | ackDeadline)
		a.Deadline = flags&ackDeadline != 0
		a.ModelDigest = r.String(int(r.U16()))
		a.Error = r.String(int(r.U32()))
		if flags&ackVerdict != 0 {
			a.Verdict = new(core.Verdict)
			pipeline.ReadVerdict(&r, a.Verdict)
			// A score that is not finite compares false both ways: the
			// coordinator would record a verdict no threshold classifies.
			if s := a.Verdict.Score; math.IsNaN(s) || math.IsInf(s, 0) {
				r.Fail(fmt.Errorf("verdict score %v is not finite", s))
			}
		}
		req.Ack = a
	}
	r.End()
	if err := r.Err(); err != nil {
		return claimRequest{}, fmt.Errorf("%w: %w", errBadBody, err)
	}
	return req, nil
}

// decodeLeaseRequest reads a heartbeat or nack body.
func decodeLeaseRequest(b []byte) (leaseRequest, error) {
	r := wire.NewReader(b)
	readVersion(&r)
	req := leaseRequest{Seq: int64(r.U64()), Token: r.U64(), Node: r.String(int(r.U16())), Cause: r.String(int(r.U32()))}
	r.End()
	if err := r.Err(); err != nil {
		return leaseRequest{}, fmt.Errorf("%w: %w", errBadBody, err)
	}
	return req, nil
}

// readVersion reads a frame's or body's version byte and fails r on any
// other than frameVersion, naming the JSON request bodies of version 3.
func readVersion(r *wire.Reader) {
	switch v := r.U8(); {
	case r.Err() != nil || v == frameVersion:
	case v == '{':
		r.Fail(fmt.Errorf("a JSON body (claim wire version 3 or older), want version %d: coordinator and workers must be the same build", frameVersion))
	default:
		r.Fail(fmt.Errorf("claim wire version %d, want %d: coordinator and workers must be the same build", v, frameVersion))
	}
}
