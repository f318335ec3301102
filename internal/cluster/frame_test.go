package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"apichecker/internal/apk"
	"apichecker/internal/core"
	"apichecker/internal/dataset"
	"apichecker/internal/framework"
	"apichecker/internal/vcache"
)

// frame encodes cl the way the coordinator writes it: header, then the
// payload as it lies.
func frame(t testing.TB, cl *claim) []byte {
	t.Helper()
	hdr, err := appendClaimHeader(nil, cl)
	if err != nil {
		t.Fatal(err)
	}
	return append(hdr, cl.Payload...)
}

// seedFrames are claim frames around three real built archives, plus the
// shortest frame there is.
func seedFrames(t testing.TB) [][]byte {
	t.Helper()
	u := framework.MustGenerate(framework.TestConfig(3000))
	cfg := dataset.DefaultConfig()
	cfg.NumApps = 40
	corpus, err := dataset.Generate(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{frame(t, &claim{})}
	for i := 0; i < 3; i++ {
		raw, err := apk.Build(corpus.Program(i), u)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame(t, &claim{
			Seq:              int64(1000 + i),
			Token:            uint64(7 + i),
			LeaseTTLMS:       60_000,
			DeadlineUnixNano: int64(i) * 1_700_000_000_000_000_000,
			Key:              apk.Digest(raw),
			ModelDigest:      strings.Repeat("ab", 32),
			Payload:          raw,
		}))
	}
	return frames
}

func TestClaimFrameRoundTrip(t *testing.T) {
	for i, f := range seedFrames(t) {
		cl := new(claim)
		if err := decodeClaim(f, cl); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i > 0 && (cl.Seq != int64(1000+i-1) || cl.Key != apk.Digest(cl.Payload)) {
			t.Fatalf("frame %d decoded to %+v", i, cl)
		}
		if got := frame(t, cl); !bytes.Equal(got, f) {
			t.Fatalf("frame %d re-encodes to %d different bytes", i, len(got))
		}
	}
	if _, err := appendClaimHeader(nil, &claim{Key: strings.Repeat("k", 0x10000)}); !errors.Is(err, errBadFrame) {
		t.Fatalf("a 65536-byte key encoded: %v", err)
	}
	for _, bad := range [][]byte{
		nil,
		{frameVersion},
		{1, 0},                              // another build
		{frameVersion - 1, 0},               // the previous build
		{frameVersion, 1},                   // reserved flag
		{frameVersion, 2},                   // ditto
		make([]byte, frameFixed-1),          // short fixed header
		append([]byte{frameVersion, 0}, 1),  // ditto
		append(make([]byte, frameFixed), 0), // half a length
	} {
		if cl := new(claim); !errors.Is(decodeClaim(bad, cl), errBadFrame) {
			t.Errorf("decodeClaim(%v) = %+v; want errBadFrame", bad, cl)
		}
	}
}

// TestClaimFrameLyingLengthAllocatesNothing: every length the wire
// declares is checked against a bound or the bytes present before
// anything is sized from it.
func TestClaimFrameLyingLengthAllocatesNothing(t *testing.T) {
	good := seedFrames(t)[1]
	lyingKey := append([]byte{}, good[:frameFixed+2+10]...)
	binary.LittleEndian.PutUint16(lyingKey[frameFixed:], 0xFFFF)
	modelAt := frameFixed + 2 + 64
	lyingModel := append([]byte{}, good[:modelAt+2+10]...)
	binary.LittleEndian.PutUint16(lyingModel[modelAt:], 0xFFFF)

	// Each input is built before the measured read.
	read := func(d direction, declared uint32, body []byte) func() error {
		in := envelopeOf(d.types[0], declared, body)
		return func() error {
			_, _, err := (&stream{r: bytes.NewReader(in)}).read(d)
			return err
		}
	}
	// A declared length inside the bound but never sent may size what the
	// bytes that did arrive need, and no more: a few times their length.
	sent := uint64(4 * len(good))
	var into claim
	cases := []struct {
		name  string
		want  error
		extra uint64 // bytes the case may allocate beyond 4 KiB
		run   func() error
	}{
		{"declared length past the bound", errBadFrame, 0, read(down, maxFrameBytes+1, good)},
		{"declared length 1<<32-1", errBadFrame, 0, read(down, 1<<32-1, good)},
		{"up-frame length past maxControlBytes", errBadFrame, 0, read(up, maxControlBytes+1, good)},
		{"declared length inside the bound, not sent", io.ErrUnexpectedEOF, sent, read(down, maxFrameBytes, good)},
		{"key length past the frame", errBadFrame, 0, func() error { return decodeClaim(lyingKey, &into) }},
		{"model digest length past the frame", errBadFrame, 0, func() error { return decodeClaim(lyingModel, &into) }},
	}
	for _, tc := range cases {
		// TotalAlloc is process-wide, so another goroutine's allocation can
		// land inside the window: the smallest of a few readings is ours.
		least := ^uint64(0)
		for try := 0; try < 5; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.run()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, tc.want) {
				t.Fatalf("%s: %v, want %v", tc.name, err, tc.want)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 4<<10+tc.extra {
			t.Errorf("%s: allocated %d bytes, want < %d", tc.name, least, 4<<10+tc.extra)
		}
	}

	// A body shorter than its declared length is an error, not a short frame.
	if err := read(down, uint32(len(good)), good[:len(good)-1])(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: %v, want io.ErrUnexpectedEOF", err)
	}
}

// envelopeOf is a stream frame of type typ that declares n body bytes and
// carries body.
func envelopeOf(typ byte, n uint32, body []byte) []byte {
	return append(binary.LittleEndian.AppendUint32([]byte{typ}, n), body...)
}

// FuzzClaimFrame: decodeClaim never panics, allocates no more than the
// input's size, and anything it accepts re-encodes to the same bytes.
func FuzzClaimFrame(f *testing.F) {
	for _, s := range seedFrames(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cl := new(claim)
		if err := decodeClaim(b, cl); err != nil {
			if !errors.Is(err, errBadFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(cl.Key)+len(cl.ModelDigest)+len(cl.Payload) > len(b) {
			t.Fatalf("decoded %d+%d+%d bytes out of %d", len(cl.Key), len(cl.ModelDigest), len(cl.Payload), len(b))
		}
		if got := frame(t, cl); !bytes.Equal(got, b) {
			t.Fatalf("accepted frame re-encodes differently:\n in  %x\n out %x", b, got)
		}
	})
}

// encodeClaimRequest appends req the way a lane does.
func encodeClaimRequest(req claimRequest) []byte {
	var ack []byte
	if req.Acked {
		ack = appendAck(nil, &req.Ack)
	}
	return appendClaimRequest(nil, req.WaitMS, ack)
}

// encodeLeaseRequest appends req the way a heartbeat or nack does.
func encodeLeaseRequest(req leaseRequest) []byte {
	return appendLeaseRequest(nil, req.Seq, req.Token, req.Cause)
}

// controlNasty is a string no escaping or length rule may trip on.
const controlNasty = "p\"k\\g\n\x00\x1f é  \xff</script>"

// filledVerdict is a core.Verdict with every field set by reflection, so a
// field added to core.Verdict and not to the verdict codec shows up as a
// difference. Digest is the one field left empty, as the worker's body
// leaves it; Tier is 1, the one value other than 2 the codec carries.
func filledVerdict(t testing.TB) *core.Verdict {
	v := &core.Verdict{}
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		switch name, f := rv.Type().Field(i).Name, rv.Field(i); {
		case name == "Digest":
			// not on the wire: the coordinator sets it from its own key
		case name == "Tier":
			f.SetInt(1)
		case f.Kind() == reflect.String:
			f.SetString(controlNasty + name)
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.Kind() == reflect.Float64:
			f.SetFloat(-0.1 * math.Pi * float64(i+1))
		case f.Kind() == reflect.Int || f.Kind() == reflect.Int64:
			f.SetInt(int64(-7 - i))
		case f.Kind() == reflect.Uint64:
			f.SetUint(math.MaxUint64 - uint64(i))
		default:
			t.Fatalf("core.Verdict.%s: a %s the verdict codec does not know how to carry", name, f.Kind())
		}
	}
	return v
}

// seedModelRequests are the digests of model requests.
var seedModelRequests = []string{"", strings.Repeat("ab", 32), controlNasty}

// seedControlBodies are claim requests with and without an ack, and
// heartbeat and nack bodies.
func seedControlBodies(t testing.TB) (claims []claimRequest, leases []leaseRequest) {
	claims = append(claims, claimRequest{WaitMS: -1})
	for _, a := range []ackRequest{
		{Seq: math.MinInt64, Token: math.MaxUint64, Key: []byte(strings.Repeat("c0", 32)), ModelDigest: "d", Outcome: vcache.OutcomeMiss, WallNS: 12345, Verdict: filledVerdict(t)},
		{Seq: 3, Token: 4, Key: []byte(controlNasty), Outcome: vcache.OutcomeBypass, Error: controlNasty, Deadline: true},
		{Seq: 5, Token: 6, Key: []byte("k"), Outcome: vcache.OutcomeCoalesced, Verdict: &core.Verdict{Score: 5e-324, Tier: 2}, Error: "both"},
		{Outcome: vcache.OutcomeHit, Verdict: &core.Verdict{Score: math.Copysign(0, -1), Tier: 2}},
		{},
	} {
		claims = append(claims, claimRequest{WaitMS: -1, Acked: true, Ack: a})
	}
	claims = append(claims, claimRequest{WaitMS: 250})
	for _, cause := range []string{"", controlNasty} {
		leases = append(leases, leaseRequest{Seq: -9, Token: math.MaxUint64, Cause: cause})
	}
	return claims, leases
}

// TestControlBodiesRoundTrip: every control body a worker appends decodes
// to the values it was appended from, and those re-encode to the same
// bytes.
func TestControlBodiesRoundTrip(t *testing.T) {
	claims, leases := seedControlBodies(t)
	for _, want := range claims {
		body := encodeClaimRequest(want)
		got, err := new(requestDecoder).decode(body)
		if err != nil {
			t.Fatalf("%x: %v", body, err)
		}
		if !sameRequest(got, want) {
			t.Fatalf("claim body decodes to\n %+v\nwant\n %+v", got, want)
		}
		if re := encodeClaimRequest(got); !bytes.Equal(re, body) {
			t.Fatalf("claim body re-encodes differently:\n in  %x\n out %x", body, re)
		}
	}
	for _, want := range leases {
		body := encodeLeaseRequest(want)
		got, err := decodeLeaseRequest(body)
		if err != nil {
			t.Fatalf("%x: %v", body, err)
		}
		if got != want {
			t.Fatalf("lease body decodes to %+v, want %+v", got, want)
		}
	}
}

// TestControlBodiesRefused: each body the coordinator must refuse is
// errBadBody, and a body from another build says so.
func TestControlBodiesRefused(t *testing.T) {
	withAck := func(edit func(a *ackRequest)) []byte {
		a := ackRequest{Seq: 1, Token: 2, Key: []byte("k"), ModelDigest: "m", Outcome: vcache.OutcomeMiss, Verdict: &core.Verdict{Package: "p", Tier: 2}}
		edit(&a)
		return encodeClaimRequest(claimRequest{WaitMS: 1, Acked: true, Ack: a})
	}
	good := withAck(func(*ackRequest) {})
	// Offsets into good: the ack starts after the 10-byte claim header; its
	// key's length follows seq and token, its outcome byte the 1-byte key
	// and wall, and its model digest's length the outcome and flag bytes.
	keyAt := 2 + 8 + 16
	outcomeAt := keyAt + 2 + 1 + 8
	badOutcome := append([]byte{}, good...)
	badOutcome[outcomeAt] = byte(vcache.OutcomeCoalesced) + 1
	lyingKey := append([]byte{}, good...)
	binary.LittleEndian.PutUint16(lyingKey[keyAt:], 0xFFFF)
	lyingModel := append([]byte{}, good...)
	binary.LittleEndian.PutUint16(lyingModel[outcomeAt+2:], 0xFFFF)
	lease := encodeLeaseRequest(leaseRequest{Seq: 1, Token: 2})

	for _, tc := range []struct {
		name  string
		claim bool
		body  []byte
		want  string
	}{
		{"empty claim", true, nil, "truncated"},
		{"empty lease", false, nil, "truncated"},
		{"a previous build's claim", true, append([]byte{frameVersion - 1}, good[1:]...), "same build"},
		{"a previous build's lease", false, append([]byte{frameVersion - 1}, lease[1:]...), "same build"},
		{"reserved claim flag", true, append([]byte{frameVersion, 2}, good[2:]...), "reserved flag"},
		{"reserved ack flag", true, func() []byte {
			b := append([]byte{}, good...)
			b[outcomeAt+1] |= 4
			return b
		}(), "reserved flag"},
		{"ack flag, no ack", true, append([]byte{frameVersion, requestAck}, good[2:10]...), "truncated"},
		{"unknown outcome", true, badOutcome, "cache outcome"},
		{"NaN score", true, withAck(func(a *ackRequest) { a.Verdict.Score = math.NaN() }), "not finite"},
		{"+Inf score", true, withAck(func(a *ackRequest) { a.Verdict.Score = math.Inf(1) }), "not finite"},
		{"-Inf score", true, withAck(func(a *ackRequest) { a.Verdict.Score = math.Inf(-1) }), "not finite"},
		{"key length past the body", true, lyingKey, "truncated"},
		{"model digest length past the body", true, lyingModel, "truncated"},
		{"trailing claim byte", true, append(append([]byte{}, good...), 0), "trailing"},
		{"short claim", true, good[:len(good)-1], "truncated"},
		{"trailing lease byte", false, append(append([]byte{}, lease...), 0), "trailing"},
		{"short lease", false, lease[:len(lease)-1], "truncated"},
	} {
		var err error
		if tc.claim {
			_, err = new(requestDecoder).decode(tc.body)
		} else {
			_, err = decodeLeaseRequest(tc.body)
		}
		if !errors.Is(err, errBadBody) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want errBadBody naming %q", tc.name, err, tc.want)
		}
	}
}

// FuzzControlBodies: no request decoder panics, every refusal is
// errBadBody, and every accepted body re-encodes to the bytes it came
// from.
func FuzzControlBodies(f *testing.F) {
	claims, leases := seedControlBodies(f)
	for _, req := range claims {
		f.Add(encodeClaimRequest(req))
	}
	for _, req := range leases {
		f.Add(encodeLeaseRequest(req))
	}
	for _, digest := range seedModelRequests {
		f.Add(appendString16(nil, digest))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if digest, err := decodeModelRequest(b); err != nil {
			if !errors.Is(err, errBadBody) {
				t.Fatalf("untyped model request error: %v", err)
			}
		} else if re := appendString16(nil, digest); !bytes.Equal(re, b) {
			t.Fatalf("accepted model request re-encodes differently:\n in  %x\n out %x", b, re)
		}
		if req, err := new(requestDecoder).decode(b); err != nil {
			if !errors.Is(err, errBadBody) {
				t.Fatalf("untyped claim error: %v", err)
			}
		} else if re := encodeClaimRequest(req); !bytes.Equal(re, b) {
			t.Fatalf("accepted claim body re-encodes differently:\n in  %x\n out %x", b, re)
		}
		if req, err := decodeLeaseRequest(b); err != nil {
			if !errors.Is(err, errBadBody) {
				t.Fatalf("untyped lease error: %v", err)
			}
		} else if re := encodeLeaseRequest(req); !bytes.Equal(re, b) {
			t.Fatalf("accepted lease body re-encodes differently:\n in  %x\n out %x", b, re)
		}
	})
}

// writeBuffer is a stream's write side in memory.
type writeBuffer struct{ bytes.Buffer }

func (*writeBuffer) Close() error { return nil }

// seedStreams are frame sequences a lane sends and a coordinator answers.
func seedStreams(t testing.TB) [][]byte {
	var up, down writeBuffer
	ls, cs := &stream{rw: &up}, &stream{rw: &down}
	claims, leases := seedControlBodies(t)
	for _, req := range claims {
		ls.send(append(ls.frame(upClaim), encodeClaimRequest(req)...))
	}
	for _, req := range leases {
		ls.send(append(ls.frame(upNack), encodeLeaseRequest(req)...))
		ls.send(append(ls.frame(upHeartbeat), encodeLeaseRequest(req)...))
	}
	for _, digest := range seedModelRequests {
		ls.send(appendString16(ls.frame(upModel), digest))
	}
	for _, f := range seedFrames(t) {
		cs.send(append(cs.frame(downClaim), f...))
	}
	cs.send(cs.frame(downEmpty))
	cs.send(cs.frame(downDrained))
	cs.send(append(cs.frame(downModel), "not an artifact, but the envelope does not look"...))
	cs.refuse(400, controlNasty)
	return [][]byte{up.Bytes(), down.Bytes()}
}

// FuzzStreamFrames: the envelope reader never panics; a declared length
// past its direction's bound, or a type the direction does not carry, is
// refused before anything is sized from it; and the frames it accepts
// re-encode to the bytes they came from.
func FuzzStreamFrames(f *testing.F) {
	for _, s := range seedStreams(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, d := range []direction{up, down} {
			var out writeBuffer
			in, re := &stream{r: bytes.NewReader(b)}, &stream{rw: &out}
			for {
				before := cap(in.in)
				typ, body, err := in.read(d)
				if err != nil {
					if errors.Is(err, errBadFrame) && cap(in.in) != before {
						t.Fatalf("a refused frame sized the buffer from %d to %d bytes", before, cap(in.in))
					}
					if !errors.Is(err, errBadFrame) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Fatalf("untyped error: %v", err)
					}
					break
				}
				if !strings.ContainsRune(d.types, rune(typ)) || len(body) > d.bound {
					t.Fatalf("accepted a %d-byte %q frame", len(body), typ)
				}
				if err := re.send(append(re.frame(typ), body...)); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.HasPrefix(b, out.Bytes()) {
				t.Fatalf("accepted frames re-encode differently:\n in  %x\n out %x", b, out.Bytes())
			}
		}
	})
}

// sameRequest reports whether two decoded claim requests say the same
// thing: an empty key is empty whether or not it has storage behind it.
func sameRequest(a, b claimRequest) bool {
	ka, kb := a.Ack.Key, b.Ack.Key
	a.Ack.Key, b.Ack.Key = nil, nil
	return bytes.Equal(ka, kb) && reflect.DeepEqual(a, b)
}

// TestDecodeIntoOwnedStorage: a sequence of claim frames decoded into one
// claim, and a sequence of claim requests decoded by one requestDecoder,
// give what decoding each into fresh storage gives, through a model digest
// that changes mid-stream, an ack without a verdict after one with, an ack
// without an error after one with, and a frame that does not decode. A
// request the handler still holds is unchanged by decoding the next, and a
// model digest that repeats is the string the stream already holds.
func TestDecodeIntoOwnedStorage(t *testing.T) {
	genA, genB := strings.Repeat("ab", 32), strings.Repeat("cd", 32)
	frames := seedFrames(t)[1:]
	for _, cl := range []claim{
		{Seq: 9, Token: 1, Key: "k9", ModelDigest: genA, Payload: []byte("p")},
		{Seq: 10, Token: 2, LeaseTTLMS: 5, ModelDigest: genB},
		{Seq: 11, Token: 3, DeadlineUnixNano: 7, Key: strings.Repeat("k", 300), ModelDigest: genB, Payload: []byte("payload")},
		{},
		{Seq: 12, Key: "k12", ModelDigest: genA},
	} {
		frames = append(frames, frame(t, &cl))
	}
	frames = slices.Insert(frames, 4, frames[3][:frameFixed+3])

	var owned claim
	for i, f := range frames {
		last := owned.ModelDigest
		fresh := new(claim)
		freshErr, err := decodeClaim(f, fresh), decodeClaim(f, &owned)
		if (freshErr == nil) != (err == nil) {
			t.Fatalf("frame %d: %v into owned storage, %v into fresh", i, err, freshErr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(owned, *fresh) {
			t.Fatalf("frame %d into owned storage:\n %+v\nfresh:\n %+v", i, owned, *fresh)
		}
		if owned.ModelDigest == last && unsafe.StringData(owned.ModelDigest) != unsafe.StringData(last) {
			t.Fatalf("frame %d: a repeated model digest was copied", i)
		}
	}

	verdict := filledVerdict(t)
	var bodies [][]byte
	for _, req := range []claimRequest{
		{WaitMS: 1, Acked: true, Ack: ackRequest{Seq: 1, Token: 1, Key: []byte(genA), ModelDigest: genA, Outcome: vcache.OutcomeMiss, Verdict: verdict}},
		{WaitMS: 1, Acked: true, Ack: ackRequest{Seq: 2, Token: 2, Key: []byte("k2"), ModelDigest: genA, Error: "boom", Deadline: true}},
		{WaitMS: 1, Acked: true, Ack: ackRequest{Seq: 3, Token: 3, Key: []byte("k3"), ModelDigest: genB, Outcome: vcache.OutcomeHit, Verdict: &core.Verdict{Package: "p", Tier: 2}}},
		{WaitMS: 250},
		{WaitMS: 0, Acked: true, Ack: ackRequest{Seq: 4, Token: 4, Key: []byte(strings.Repeat("k", 300)), ModelDigest: genB, Error: "late"}},
		{Acked: true},
		{WaitMS: 1, Acked: true, Ack: ackRequest{Seq: 5, Token: 5, Key: []byte("k5"), ModelDigest: genA, Outcome: vcache.OutcomeCoalesced, Verdict: verdict}},
	} {
		bodies = append(bodies, encodeClaimRequest(req))
	}
	bodies = slices.Insert(bodies, 2, bodies[1][:len(bodies[1])-1])

	var d requestDecoder
	var held claimRequest
	heldAt := -1
	for i, b := range bodies {
		fresh, freshErr := new(requestDecoder).decode(b)
		got, err := d.decode(b)
		if (freshErr == nil) != (err == nil) {
			t.Fatalf("request %d: %v with the stream's decoder, %v with a fresh one", i, err, freshErr)
		}
		if err != nil {
			continue
		}
		if !sameRequest(got, fresh) {
			t.Fatalf("request %d with the stream's decoder:\n %+v\nfresh:\n %+v", i, got, fresh)
		}
		if heldAt >= 0 {
			if want, _ := new(requestDecoder).decode(bodies[heldAt]); !sameRequest(held, want) {
				t.Fatalf("request %d, held while %d decoded, changed to\n %+v\nwant\n %+v", heldAt, i, held, want)
			}
			if got.Acked && held.Acked && got.Ack.ModelDigest == held.Ack.ModelDigest &&
				unsafe.StringData(got.Ack.ModelDigest) != unsafe.StringData(held.Ack.ModelDigest) {
				t.Fatalf("request %d: a repeated model digest was copied", i)
			}
		}
		held, heldAt = got, i
	}
}

// TestHeldAckSurvivesNextRequest: a lane writes two claim requests back to
// back while the handler still holds the first one's ack. Once the stream's
// reader has decoded the second, both acks say what was sent; and once it
// has decoded a third, the second, which the handler may still hold, says
// so too: the reader writes no key a handed-over frame points at.
func TestHeldAckSurvivesNextRequest(t *testing.T) {
	laneEnd, coordEnd := net.Pipe()
	defer laneEnd.Close()
	frames := make(chan upFrame)
	done := make(chan struct{})
	reading := make(chan struct{})
	go func() {
		defer close(reading)
		readUp(&stream{rw: coordEnd, r: coordEnd}, frames, done, func(error) { coordEnd.Close() })
	}()
	keys := []string{strings.Repeat("1", 64), strings.Repeat("2", 64), strings.Repeat("3", 64)}
	third := make(chan struct{})
	go func() {
		ls := &stream{rw: laneEnd}
		for i, key := range keys {
			if i == 2 {
				<-third
			}
			ack := appendAck(nil, &ackRequest{Seq: int64(i + 1), Token: 1, Key: []byte(key), ModelDigest: "m"})
			if ls.send(appendClaimRequest(ls.frame(upClaim), 0, ack)) != nil {
				return
			}
		}
	}()
	check := func(f upFrame, i int) {
		t.Helper()
		if f.err != nil || !f.claim.Acked || string(f.claim.Ack.Key) != keys[i] || f.claim.Ack.Seq != int64(i+1) {
			t.Fatalf("request %d: %v, ack seq %d, key %.8s…; want seq %d, key %.8s…",
				i, f.err, f.claim.Ack.Seq, f.claim.Ack.Key, i+1, keys[i])
		}
	}
	first, second := <-frames, <-frames
	check(first, 0)
	check(second, 1)
	close(third)
	check(<-frames, 2)
	check(second, 1)
	close(done)
	laneEnd.Close()
	<-reading
}
