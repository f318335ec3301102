package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"

	"apichecker/internal/apk"
	"apichecker/internal/core"
	"apichecker/internal/pipeline"
	"apichecker/internal/vcache"
	"apichecker/internal/wire"
)

// The claim stream: once a lane's POST /v1/cluster/stream is answered 101,
// the connection carries frames both ways, each a type byte and a
// little-endian u32 body length, then the body:
//
//	dir   type  body                        answered by
//	up    'c'   claim request (below)       one down-frame
//	up    'n'   nack body (below)           'E', or 'R' (410 lease gone, 400 bad body)
//	up    'h'   heartbeat: the nack's body  'E', or 'R' (410 lease gone, 400 bad body)
//	up    'm'   model request: u16 length + bytes, the digest
//	                                        'M', or 'R' (404 unknown digest)
//	down  'C'   claim frame (below)
//	down  'E'   empty: nothing claimed, or the nack or heartbeat is done
//	down  'D'   empty: the queue is drained
//	down  'M'   the encoded APKMODEL artifact, whose sha256 is the digest asked for
//	down  'R'   refusal: u16 HTTP status, then the message
//
// An up-frame body is at most maxControlBytes, a down-frame body at most
// maxFrameBytes; a declared length past its bound, or a type the direction
// does not carry, ends the stream before anything is sized from it.
//
// The claim frame, little-endian, the archive last so neither side copies
// or re-encodes it:
//
//	[0]   version   byte    frameVersion
//	[1]   flags     byte    all reserved
//	[2]   seq       int64
//	[10]  token     uint64  lease token; heartbeat/ack/nack echo it
//	[18]  ttl       int64   lease TTL, milliseconds (0: never expires)
//	[26]  deadline  int64   absolute vet deadline, Unix nanoseconds (0: unbounded)
//	[34]  key       uint16 length + bytes  content digest
//	      model     uint16 length + bytes  serving model digest
//	      payload   the rest of the body   raw archive bytes
//
// The claim request (the stream's upgrade named the node):
//
//	[0]   version   byte    frameVersion
//	[1]   flags     byte    bit0 an ack follows; others reserved
//	[2]   wait      int64   long-poll budget, milliseconds (<= 0: claim nothing)
//	      the ack, when flagged:
//	      seq       int64
//	      token     uint64
//	      key       uint16 length + bytes  the claim frame's key, echoed
//	      wall      int64   node-side vet cost, nanoseconds
//	      outcome   byte    vcache.Outcome
//	      flags     byte    bit0 a verdict follows, bit1 the error is a missed deadline
//	      model     uint16 length + bytes  the generation the node vetted under
//	      error     uint32 length + bytes  empty when the vet succeeded
//	      verdict   pipeline.AppendVerdict's layout, when flagged; Score finite
//
// The nack and heartbeat frames' body:
//
//	[0]   version   byte    frameVersion
//	[1]   seq       int64
//	[9]   token     uint64
//	[17]  cause     uint32 length + bytes  the nack's reason; empty on a heartbeat
//
// Decoding is strict — unknown version, reserved flag bits, an outcome
// vcache does not define, a length that runs past the bytes present, or
// anything after the last field is an error — so every accepted frame and
// body re-encodes to the bytes it came from.
//
// Each end decodes into storage it owns, so nothing decoded aliases a
// buffer the stream reads the next frame into, except a claim's payload:
//   - A lane decodes every claim frame into the one job it owns. The claim
//     and its payload, which is the tail of the stream's read buffer, hold
//     until the lane's next poll, after the vet and its Ack.
//   - The coordinator's stream reader decodes each claim request's ack by
//     value into the frame it hands to the handler, and copies the ack's key
//     into one of two buffers it owns, in turn. The handler holds one frame
//     at a time and is done with it before the reader can hand over the
//     next, so a key holds until the reader has decoded two acks more.
//   - Each end interns a model digest per stream: a digest that spells the
//     last one the stream carried is that string again, so a stream
//     allocates it once per model generation.
const (
	frameVersion = 9
	frameFixed   = 34

	requestAck  = 1 << 0 // claim request flags
	ackVerdict  = 1 << 0 // ack flags
	ackDeadline = 1 << 1

	// maxName is the longest key or digest a uint16 length carries.
	maxName = 0xFFFF

	// maxFrameBytes is the largest down-frame body a worker will read: the
	// largest archive the decode stage accepts plus the largest claim
	// header. It covers maxModelBytes too.
	maxFrameBytes = apk.MaxDecodedBytes + frameFixed + 2*(2+maxName)

	// maxControlBytes bounds an up-frame body. They run to a few hundred
	// bytes; the bound leaves room for what has no bound of its own — the
	// package name a verdict carries comes from the submitted manifest.
	maxControlBytes = 64 << 10
)

// Stream frame types.
const (
	upClaim     = 'c'
	upNack      = 'n'
	upHeartbeat = 'h'
	upModel     = 'm'

	downClaim   = 'C'
	downEmpty   = 'E'
	downDrained = 'D'
	downModel   = 'M'
	downRefusal = 'R'
)

var (
	errBadFrame = errors.New("cluster: bad claim frame")
	errBadBody  = errors.New("cluster: bad request body")
)

// claim is one decoded claim frame: a leased submission.
type claim struct {
	Seq              int64
	Token            uint64
	LeaseTTLMS       int64
	DeadlineUnixNano int64
	Key              string
	ModelDigest      string // the artifact the node must serve before it vets this claim

	// Payload is the raw archive. Decoded, it aliases the frame buffer.
	Payload []byte
}

// appendClaimHeader appends cl's frame, up to but not including the
// payload, to dst; the coordinator writes Item.Payload straight after it.
func appendClaimHeader(dst []byte, cl *claim) ([]byte, error) {
	if len(cl.Key) > maxName || len(cl.ModelDigest) > maxName {
		return dst, fmt.Errorf("%w: %d-byte key, %d-byte model digest: each is bounded by 65535",
			errBadFrame, len(cl.Key), len(cl.ModelDigest))
	}
	le := binary.LittleEndian
	dst = append(dst, frameVersion, 0)
	dst = le.AppendUint64(dst, uint64(cl.Seq))
	dst = le.AppendUint64(dst, cl.Token)
	dst = le.AppendUint64(dst, uint64(cl.LeaseTTLMS))
	dst = le.AppendUint64(dst, uint64(cl.DeadlineUnixNano))
	return appendString16(appendString16(dst, cl.Key), cl.ModelDigest), nil
}

// appendString16 appends s after its length as a uint16; s is at most
// maxName bytes.
func appendString16(dst []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(dst, uint16(len(s))), s...)
}

// decodeClaim reads one frame into cl, every field of which it writes.
// It allocates only the key, and the model digest when it is not the one
// cl already holds, each after its declared length has been checked
// against the bytes present; cl.Payload is the tail of b.
func decodeClaim(b []byte, cl *claim) error {
	r := wire.NewReader(b)
	readVersion(&r)
	r.Flags(0)
	cl.Seq = int64(r.U64())
	cl.Token = r.U64()
	cl.LeaseTTLMS = int64(r.U64())
	cl.DeadlineUnixNano = int64(r.U64())
	cl.Key = r.String(int(r.U16()))
	cl.ModelDigest = intern(cl.ModelDigest, r.Bytes(int(r.U16())))
	cl.Payload = r.Rest()
	r.End()
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %w", errBadFrame, err)
	}
	return nil
}

// intern returns last when b spells it, and a copy of b otherwise.
func intern(last string, b []byte) string {
	if string(b) == last {
		return last
	}
	return string(b)
}

// appendClaimRequest appends the claim request; ack is an encoded
// ackRequest (appendAck) or empty.
func appendClaimRequest(dst []byte, waitMS int64, ack []byte) []byte {
	var flags byte
	if len(ack) > 0 {
		flags = requestAck
	}
	dst = binary.LittleEndian.AppendUint64(append(dst, frameVersion, flags), uint64(waitMS))
	return append(dst, ack...)
}

// appendAck appends one ackRequest.
func appendAck(dst []byte, a *ackRequest) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, uint64(a.Seq))
	dst = le.AppendUint64(dst, a.Token)
	dst = append(le.AppendUint16(dst, uint16(len(a.Key))), a.Key...)
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
func appendLeaseRequest(dst []byte, seq int64, token uint64, cause string) []byte {
	dst = binary.LittleEndian.AppendUint64(append(dst, frameVersion), uint64(seq))
	dst = binary.LittleEndian.AppendUint64(dst, token)
	return wire.AppendString32(dst, cause)
}

// requestDecoder decodes one stream's claim requests into storage it owns
// (see the layouts above): keys are the two buffers an ack's key is copied
// into, in turn, and model is the last model digest an ack carried.
type requestDecoder struct {
	keys  [2][]byte
	turn  int
	model string
}

// decode reads a claim request. Nothing decoded aliases b: the ack's key
// is the decoder's until it has decoded two more acks (a request it
// refuses does not count), and its strings are copies, or the interned
// model digest.
func (d *requestDecoder) decode(b []byte) (claimRequest, error) {
	r := wire.NewReader(b)
	readVersion(&r)
	flags := r.Flags(requestAck)
	req := claimRequest{WaitMS: int64(r.U64()), Acked: flags&requestAck != 0}
	if req.Acked {
		a := &req.Ack
		a.Seq, a.Token = int64(r.U64()), r.U64()
		d.keys[d.turn] = append(d.keys[d.turn][:0], r.Bytes(int(r.U16()))...)
		a.Key = d.keys[d.turn]
		a.WallNS = int64(r.U64())
		if a.Outcome = vcache.Outcome(r.U8()); a.Outcome > vcache.OutcomeCoalesced {
			r.Fail(fmt.Errorf("cache outcome %d", a.Outcome))
		}
		flags := r.Flags(ackVerdict | ackDeadline)
		a.Deadline = flags&ackDeadline != 0
		a.ModelDigest = intern(d.model, r.Bytes(int(r.U16())))
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
	}
	r.End()
	if err := r.Err(); err != nil {
		return claimRequest{}, fmt.Errorf("%w: %w", errBadBody, err)
	}
	if req.Acked {
		d.turn ^= 1
		d.model = req.Ack.ModelDigest
	}
	return req, nil
}

// decodeModelRequest reads a model request: the digest asked for, a copy.
func decodeModelRequest(b []byte) (string, error) {
	r := wire.NewReader(b)
	digest := r.String(int(r.U16()))
	r.End()
	if err := r.Err(); err != nil {
		return "", fmt.Errorf("%w: %w", errBadBody, err)
	}
	return digest, nil
}

// decodeLeaseRequest reads a heartbeat or nack body.
func decodeLeaseRequest(b []byte) (leaseRequest, error) {
	r := wire.NewReader(b)
	readVersion(&r)
	req := leaseRequest{Seq: int64(r.U64()), Token: r.U64(), Cause: r.String(int(r.U32()))}
	r.End()
	if err := r.Err(); err != nil {
		return leaseRequest{}, fmt.Errorf("%w: %w", errBadBody, err)
	}
	return req, nil
}

// readRefusal reads an answer the request did not hope for as a refusal:
// the status, and the error a lane reports, which reads as an HTTP
// answer's error text does. An answer of another type has no status.
func readRefusal(typ byte, b []byte) (int, error) {
	if typ != downRefusal {
		return 0, fmt.Errorf("%w: a %q frame out of turn", errBadFrame, typ)
	}
	r := wire.NewReader(b)
	code := int(r.U16())
	if r.Err() != nil {
		return 0, fmt.Errorf("%w: a %d-byte refusal", errBadFrame, len(b))
	}
	return code, fmt.Errorf("cluster: stream: %d %s: %s", code, http.StatusText(code), r.Rest())
}

// readVersion reads a frame's or body's version byte and fails r on any
// other than frameVersion.
func readVersion(r *wire.Reader) {
	if v := r.U8(); r.Err() == nil && v != frameVersion {
		r.Fail(fmt.Errorf("claim wire version %d, want %d: coordinator and workers must be the same build", v, frameVersion))
	}
}

// A direction is one way along a claim stream: the frame types it
// carries and the largest body it accepts.
type direction struct {
	types string
	bound int
}

var (
	up   = direction{types: string([]byte{upClaim, upNack, upHeartbeat, upModel}), bound: maxControlBytes}
	down = direction{types: string([]byte{downClaim, downEmpty, downDrained, downModel, downRefusal}), bound: maxFrameBytes}
)

// envelope is a frame's type byte and body length.
const envelope = 5

// keepBytes is the largest frame buffer a stream keeps for the next frame;
// a larger frame gets a buffer of its own.
const keepBytes = 64 << 10

// laneReadBytes is a lane's read buffer: a claim frame (its header and an
// archive of the usual size) that has arrived whole is read in one read.
// A larger frame reads its remainder past the buffer.
const laneReadBytes = 32 << 10

// stream is one end of a claim stream. Frames are read into one buffer
// and written from another, each reused from frame to frame, so a steady
// stream allocates nothing per frame. One goroutine reads, and one at a
// time writes.
type stream struct {
	rw  io.ReadWriteCloser
	r   io.Reader // rw's read side, possibly buffered
	hdr [envelope]byte
	in  []byte
	out []byte
}

// read reads one frame off d into the stream's read buffer. The body is
// valid until the next read. A type d does not carry, or a declared length
// past d's bound, is errBadFrame before anything is sized from it; a
// stream that ends between frames is io.EOF, inside one
// io.ErrUnexpectedEOF.
func (s *stream) read(d direction) (byte, []byte, error) { return s.readInto(d, &s.in) }

// readInto is read into *buf instead, which it grows as read grows the
// stream's buffer.
func (s *stream) readInto(d direction, buf *[]byte) (byte, []byte, error) {
	if _, err := io.ReadFull(s.r, s.hdr[:]); err != nil {
		return 0, nil, err
	}
	r := wire.NewReader(s.hdr[:])
	typ, n := r.U8(), int(r.U32())
	switch {
	case strings.IndexByte(d.types, typ) < 0:
		return typ, nil, fmt.Errorf("%w: frame type %#02x", errBadFrame, typ)
	case n > d.bound:
		return typ, nil, fmt.Errorf("%w: a %d-byte %q frame, want at most %d", errBadFrame, n, typ, d.bound)
	}
	var body []byte
	switch {
	case n <= cap(*buf):
		body = (*buf)[:n]
	case n <= keepBytes:
		*buf = make([]byte, n)
		body = *buf
	default:
		// A frame past keepBytes grows as its bytes arrive, so a length
		// declared and not sent sizes nothing.
		b, err := io.ReadAll(io.LimitReader(s.r, int64(n)))
		if err == nil && len(b) < n {
			err = io.ErrUnexpectedEOF
		}
		return typ, b, err
	}
	if _, err := io.ReadFull(s.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return typ, nil, err
	}
	return typ, body, nil
}

// frame starts a frame of type typ in the stream's write buffer; append
// the body to it and hand it to send.
func (s *stream) frame(typ byte) []byte { return append(s.out[:0], typ, 0, 0, 0, 0) }

// refuse writes a refusal: the HTTP status it stands for, then msg.
func (s *stream) refuse(code int, msg string) error {
	return s.send(append(binary.LittleEndian.AppendUint16(s.frame(downRefusal), uint16(code)), msg...))
}

// send writes f, a frame begun by frame, in one write.
func (s *stream) send(f []byte) error {
	binary.LittleEndian.PutUint32(f[1:envelope], uint32(len(f)-envelope))
	if cap(f) <= keepBytes {
		s.out = f
	}
	_, err := s.rw.Write(f)
	return err
}
