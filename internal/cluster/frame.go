package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"

	"apichecker/internal/apk"
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
// Decoding is strict — unknown version, reserved flag bits, a length that
// runs past the bytes present, or anything after a drained header is an
// error — so every accepted frame re-encodes to the bytes it came from.
const (
	frameVersion = 3
	frameDrained = 1 << 0
	frameFixed   = 46

	// maxFrameBytes is the largest claim body a worker will read: the
	// largest archive the decode stage accepts plus the largest header.
	maxFrameBytes = apk.MaxDecodedBytes + frameFixed + 2*(2+0xFFFF)
)

var errBadFrame = errors.New("cluster: bad claim frame")

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
	if len(cl.Key) > 0xFFFF || len(cl.ModelDigest) > 0xFFFF {
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
	dst = le.AppendUint16(dst, uint16(len(cl.Key)))
	dst = append(dst, cl.Key...)
	dst = le.AppendUint16(dst, uint16(len(cl.ModelDigest)))
	return append(dst, cl.ModelDigest...), nil
}

// decodeClaim reads one frame. It allocates only the two digest strings,
// each after its declared length has been checked against the bytes
// present; cl.Payload is the tail of b.
func decodeClaim(b []byte) (*claim, error) {
	r := wire.NewReader(b)
	version, flags := r.U8(), r.U8()
	switch {
	case r.Err() != nil:
		return nil, fmt.Errorf("%w: %d bytes", errBadFrame, len(b))
	case version != frameVersion:
		return nil, fmt.Errorf("%w: version %d, want %d (coordinator and workers must be the same build)",
			errBadFrame, version, frameVersion)
	case flags == frameDrained && r.Len() == 0:
		return &claim{Drained: true}, nil
	case flags != 0:
		return nil, fmt.Errorf("%w: flags 0x%02x in a %d-byte frame", errBadFrame, flags, len(b))
	}
	cl := &claim{
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
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", errBadFrame, err)
	}
	return cl, nil
}
