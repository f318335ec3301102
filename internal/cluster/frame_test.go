package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"

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
// drained frame.
func seedFrames(t testing.TB) [][]byte {
	t.Helper()
	u := framework.MustGenerate(framework.TestConfig(3000))
	cfg := dataset.DefaultConfig()
	cfg.NumApps = 40
	corpus, err := dataset.Generate(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{frame(t, &claim{Drained: true})}
	for i := 0; i < 3; i++ {
		raw, err := apk.Build(corpus.Program(i), u)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame(t, &claim{
			Seq:              int64(1000 + i),
			Token:            uint64(7 + i),
			Attempts:         uint32(i + 1),
			LeaseTTLMS:       60_000,
			DeadlineUnixNano: int64(i) * 1_700_000_000_000_000_000,
			Generation:       uint64(i + 1),
			Key:              apk.Digest(raw),
			ModelDigest:      strings.Repeat("ab", 32),
			Payload:          raw,
		}))
	}
	return frames
}

func TestClaimFrameRoundTrip(t *testing.T) {
	for i, f := range seedFrames(t) {
		cl, err := decodeClaim(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i > 0 && (cl.Drained || cl.Seq != int64(1000+i-1) || cl.Key != apk.Digest(cl.Payload)) {
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
		{'{', '"'},                          // the old JSON wire
		{frameVersion, frameDrained, 0},     // bytes after the drained header
		{frameVersion, 2},                   // reserved flag
		make([]byte, frameFixed-1),          // short fixed header
		append([]byte{frameVersion, 0}, 1),  // ditto
		append(make([]byte, frameFixed), 0), // half a length
	} {
		if cl, err := decodeClaim(bad); !errors.Is(err, errBadFrame) {
			t.Errorf("decodeClaim(%v) = %+v, %v; want errBadFrame", bad, cl, err)
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

	response := func(declared int64, body []byte) *http.Response {
		return &http.Response{StatusCode: http.StatusOK, ContentLength: declared, Body: io.NopCloser(bytes.NewReader(body))}
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"Content-Length past the bound", func() error { _, err := readClaim(response(maxFrameBytes+1, good)); return err }},
		{"Content-Length 1<<62", func() error { _, err := readClaim(response(1<<62, good)); return err }},
		{"no Content-Length", func() error { _, err := readClaim(response(-1, good)); return err }},
		{"key length past the frame", func() error { _, err := decodeClaim(lyingKey); return err }},
		{"model digest length past the frame", func() error { _, err := decodeClaim(lyingModel); return err }},
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
			if !errors.Is(err, errBadFrame) {
				t.Fatalf("%s: %v, want errBadFrame", tc.name, err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= 4<<10 {
			t.Errorf("%s: allocated %d bytes, want < 4 KiB", tc.name, least)
		}
	}

	// A body shorter than its declared length is an error, not a short frame.
	if _, err := readClaim(response(int64(len(good)), good[:len(good)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: %v, want io.ErrUnexpectedEOF", err)
	}
}

// FuzzClaimFrame: decodeClaim never panics, allocates no more than the
// input's size, and anything it accepts re-encodes to the same bytes.
func FuzzClaimFrame(f *testing.F) {
	for _, s := range seedFrames(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cl, err := decodeClaim(b)
		if err != nil {
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
	if req.Ack != nil {
		ack = appendAck(nil, req.Ack)
	}
	return appendClaimRequest(nil, req.Node, req.WaitMS, ack)
}

// encodeLeaseRequest appends req the way a heartbeat or nack does.
func encodeLeaseRequest(req leaseRequest) []byte {
	return appendLeaseRequest(nil, req.Node, req.Seq, req.Token, req.Cause)
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

// seedControlBodies are claim requests with and without an ack, and
// heartbeat and nack bodies.
func seedControlBodies(t testing.TB) (claims []claimRequest, leases []leaseRequest) {
	for _, a := range []*ackRequest{
		nil,
		{Seq: math.MinInt64, Token: math.MaxUint64, ModelDigest: "d", Outcome: vcache.OutcomeMiss, WallNS: 12345, Verdict: filledVerdict(t)},
		{Seq: 3, Token: 4, Outcome: vcache.OutcomeBypass, Error: controlNasty, Deadline: true},
		{Seq: 5, Token: 6, Outcome: vcache.OutcomeCoalesced, Verdict: &core.Verdict{Score: 5e-324, Tier: 2}, Error: "both"},
		{Outcome: vcache.OutcomeHit, Verdict: &core.Verdict{Score: math.Copysign(0, -1), Tier: 2}},
		{},
	} {
		claims = append(claims, claimRequest{Node: controlNasty, WaitMS: -1, Ack: a})
	}
	claims = append(claims, claimRequest{Node: "n", WaitMS: 250})
	for _, cause := range []string{"", controlNasty} {
		leases = append(leases, leaseRequest{Node: controlNasty, Seq: -9, Token: math.MaxUint64, Cause: cause})
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
		got, err := decodeClaimRequest(body)
		if err != nil {
			t.Fatalf("%x: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("claim body decodes to\n %+v\nwant\n %+v", got, want)
		}
		if want.Ack != nil && !reflect.DeepEqual(got.Ack, want.Ack) {
			t.Fatalf("ack decodes to\n %+v\nwant\n %+v", *got.Ack, *want.Ack)
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
		a := &ackRequest{Seq: 1, Token: 2, ModelDigest: "m", Outcome: vcache.OutcomeMiss, Verdict: &core.Verdict{Package: "p", Tier: 2}}
		edit(a)
		return encodeClaimRequest(claimRequest{Node: "n", WaitMS: 1, Ack: a})
	}
	good := withAck(func(*ackRequest) {})
	// Offsets into good: the ack starts after the 13-byte claim header; its
	// outcome byte follows seq, token and wall.
	outcomeAt := 2 + 8 + 2 + 1 + 24
	badOutcome := append([]byte{}, good...)
	badOutcome[outcomeAt] = byte(vcache.OutcomeCoalesced) + 1
	lyingNode := append([]byte{}, good...)
	binary.LittleEndian.PutUint16(lyingNode[10:], 0xFFFF)
	lease := encodeLeaseRequest(leaseRequest{Node: "n", Seq: 1, Token: 2})

	for _, tc := range []struct {
		name  string
		claim bool
		body  []byte
		want  string
	}{
		{"empty claim", true, nil, "truncated"},
		{"empty lease", false, nil, "truncated"},
		{"a version 3 JSON claim", true, []byte(`{"v":3,"node":"n","wait_ms":1}`), "same build"},
		{"a version 3 JSON lease", false, []byte(`{"node":"n","seq":1,"token":2}`), "same build"},
		{"version 3", true, append([]byte{3}, good[1:]...), "same build"},
		{"reserved claim flag", true, append([]byte{frameVersion, 2}, good[2:]...), "reserved flag"},
		{"reserved ack flag", true, func() []byte {
			b := append([]byte{}, good...)
			b[outcomeAt+1] |= 4
			return b
		}(), "reserved flag"},
		{"ack flag, no ack", true, append([]byte{frameVersion, requestAck}, good[2:13]...), "truncated"},
		{"unknown outcome", true, badOutcome, "cache outcome"},
		{"NaN score", true, withAck(func(a *ackRequest) { a.Verdict.Score = math.NaN() }), "not finite"},
		{"+Inf score", true, withAck(func(a *ackRequest) { a.Verdict.Score = math.Inf(1) }), "not finite"},
		{"-Inf score", true, withAck(func(a *ackRequest) { a.Verdict.Score = math.Inf(-1) }), "not finite"},
		{"node length past the body", true, lyingNode, "truncated"},
		{"trailing claim byte", true, append(append([]byte{}, good...), 0), "trailing"},
		{"short claim", true, good[:len(good)-1], "truncated"},
		{"trailing lease byte", false, append(append([]byte{}, lease...), 0), "trailing"},
		{"short lease", false, lease[:len(lease)-1], "truncated"},
	} {
		var err error
		if tc.claim {
			_, err = decodeClaimRequest(tc.body)
		} else {
			_, err = decodeLeaseRequest(tc.body)
		}
		if !errors.Is(err, errBadBody) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want errBadBody naming %q", tc.name, err, tc.want)
		}
	}
}

// FuzzControlBodies: neither request decoder panics, every refusal is
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
	f.Fuzz(func(t *testing.T, b []byte) {
		if req, err := decodeClaimRequest(b); err != nil {
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
