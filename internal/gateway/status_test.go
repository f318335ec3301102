package gateway

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"apichecker/internal/core"
)

// encoderBody is the body the gateway wrote before appendStatus: the
// submission resource through json.Encoder with HTML escaping off, which
// writes nothing when the value has no JSON form.
func encoderBody(st SubmissionStatus) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.Encode(st)
	return b.Bytes()
}

// FuzzStatusBodyMatchesEncodingJSON: for any submission resource, the
// appended body is byte for byte what json.Encoder writes — every string
// (control bytes, invalid UTF-8, line separators), scores on both sides of
// the exponent-form boundaries and without a JSON form, every state and
// outcome, verdicts and failures.
func FuzzStatusBodyMatchesEncodingJSON(f *testing.F) {
	scores := []float64{0, 0.25, -3.5, 1e-6, math.Nextafter(1e-6, 0), -1e-7, 1e21, math.Nextafter(1e21, 0), -2e22, math.NaN(), math.Inf(-1)}
	for i, score := range scores {
		f.Add("4f2a", int64(i+1), uint8(2), uint8(i), true, "com.example.app", 3, "4f2a", uint64(1), i%2 == 0, score, 2, int64(41*time.Second), int64(72*time.Second), false, 1, "lightweight-x86", 7, "", "")
	}
	f.Add("id \"quoted\" \\ <tag>&", int64(-1), uint8(3), uint8(0), false, "", 0, "", uint64(0), false, 0.0, 0, int64(0), int64(0), false, 0, "",
		0, "core: vet (raw archive): apk: bad archive: \x00\x1f\x7f \xff\xfe \xe2\x80\xa8\xe2\x80\xa9", "decode\n\t\r")
	f.Add("", int64(0), uint8(0), uint8(4), true, "pkg\xc3", -5, "\xed\xa0\x80", uint64(math.MaxUint64), true, -0.0, 1, int64(math.MinInt64), int64(math.MaxInt64), true, -1, "triage.static", -9, "", "")
	f.Fuzz(func(t *testing.T, id string, seq int64, state, outcome uint8, hasVerdict bool,
		pkg string, version int, digest string, gen uint64, malicious bool, score float64, tier int,
		scan, overall int64, fellBack bool, crashes int, engine string, invoked int, errMsg, stage string) {
		st := SubmissionStatus{
			ID:      id,
			Seq:     seq,
			Status:  [...]string{"queued", "claimed", "done", "failed"}[state%4],
			Outcome: [...]string{"", "miss", "hit", "coalesced", "bypass"}[outcome%5],
			Error:   errMsg,
			Stage:   stage,
		}
		if hasVerdict {
			st.Verdict = &core.Verdict{
				Package: pkg, VersionCode: version, Digest: digest, Generation: gen,
				Malicious: malicious, Score: score, Tier: tier,
				ScanTime: time.Duration(scan), OverallTime: time.Duration(overall),
				FellBack: fellBack, Crashes: crashes, Engine: engine, InvokedKeyAPIs: invoked,
			}
		}
		if got, want := appendStatus(nil, &st), encoderBody(st); !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n got %q\nwant %q", st, got, want)
		}
	})
}

// TestStatusAppenderCoversEveryField: with every field of the resource and
// of its verdict set, the appended body still matches json.Encoder's — so
// a field added to SubmissionStatus or core.Verdict without a line in
// appendStatus fails here, and so does a field of a kind this test cannot
// set.
func TestStatusAppenderCoversEveryField(t *testing.T) {
	var st SubmissionStatus
	fill(t, reflect.ValueOf(&st).Elem())
	if st.Verdict == nil {
		t.Fatal("fill left the verdict unset")
	}
	if got, want := appendStatus(nil, &st), encoderBody(st); !bytes.Equal(got, want) {
		t.Errorf("every field set:\n got %s\nwant %s", got, want)
	}
	empty := SubmissionStatus{}
	if got, want := appendStatus(nil, &empty), encoderBody(empty); !bytes.Equal(got, want) {
		t.Errorf("no field set:\n got %s\nwant %s", got, want)
	}
}

// fill sets every field of the struct v to a value that is not its zero
// value, following pointers to structs.
func fill(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.String:
			f.SetString(name + " value")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(1000 + i))
		case reflect.Uint64:
			f.SetUint(uint64(2000 + i))
		case reflect.Float64:
			f.SetFloat(0.125 + float64(i))
		case reflect.Pointer:
			if f.Type().Elem().Kind() != reflect.Struct {
				t.Fatalf("field %s: a pointer to %s; extend fill", name, f.Type().Elem())
			}
			f.Set(reflect.New(f.Type().Elem()))
			fill(t, f.Elem())
		default:
			t.Fatalf("field %s has kind %s, which fill cannot set; extend fill and appendStatus", name, f.Kind())
		}
	}
}
