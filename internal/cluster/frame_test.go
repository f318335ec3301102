package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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

// TestControlBodiesMatchEncodingJSON: the bodies the worker appends by
// hand are the documents encoding/json reads back into the same values.
// The verdict is filled by reflection, so a field added to core.Verdict
// and not to appendAck fails here. Digest is the one field left empty, as
// the worker's body leaves it.
func TestControlBodiesMatchEncodingJSON(t *testing.T) {
	nasty := "p\"k\\g\n\x00\x1f é  \xff</script>"
	v := &core.Verdict{}
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if rv.Type().Field(i).Name == "Digest" {
			continue // not on the wire: the coordinator sets it from its own key
		}
		switch f := rv.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(nasty + rv.Type().Field(i).Name)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Float64:
			f.SetFloat(-0.1 * math.Pi * float64(i+1))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(-7 - i))
		case reflect.Uint64:
			f.SetUint(math.MaxUint64 - uint64(i))
		default:
			t.Fatalf("core.Verdict.%s: a %s appendAck does not know how to carry", rv.Type().Field(i).Name, f.Kind())
		}
	}
	acks := []*ackRequest{
		{Seq: math.MinInt64, Token: math.MaxUint64, ModelDigest: "d", Outcome: "miss", WallNS: 12345, Verdict: v},
		{Seq: 3, Token: 4, Outcome: "bypass", Error: nasty, ErrorKind: "deadline"},
		{Seq: 5, Token: 6, Verdict: &core.Verdict{Score: 5e-324}, Error: "both"},
		{},
	}
	for _, a := range acks {
		want := claimRequest{V: frameVersion, Node: nasty, WaitMS: -1, Ack: a}
		body := appendClaimRequest(nil, want.Node, want.WaitMS, appendAck(nil, a))
		var got claimRequest
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		// encoding/json reads a byte that is not UTF-8 as U+FFFD, from its
		// own encoder's output as from ours.
		ref, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		var viaJSON claimRequest
		if err := json.Unmarshal(ref, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, viaJSON) {
			t.Fatalf("hand-appended body decodes to\n %+v\nencoding/json's to\n %+v\nbody %s", got, viaJSON, body)
		}
	}
	if got := appendClaimRequest(nil, "n", 250, nil); string(got) != `{"v":3,"node":"n","wait_ms":250}` {
		t.Fatalf("claim without an ack: %s", got)
	}

	for _, cause := range []string{"", nasty} {
		want := leaseRequest{Node: nasty, Seq: -9, Token: math.MaxUint64, Cause: cause}
		ref, _ := json.Marshal(want)
		var got, viaJSON leaseRequest
		if err := json.Unmarshal(appendLeaseRequest(nil, want.Node, want.Seq, want.Token, cause), &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(ref, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if got != viaJSON {
			t.Fatalf("lease body decodes to %+v, encoding/json's to %+v", got, viaJSON)
		}
	}
}
