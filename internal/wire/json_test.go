package wire

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// encodingJSON is what encoding/json writes for v with HTML escaping off,
// less the Encoder's trailing newline.
func encodingJSON(t testing.TB, v any) string {
	t.Helper()
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// TestJSONStringMatchesEncodingJSON covers every escape class: the short
// escapes, the other control bytes, quote and backslash, HTML characters
// (left alone), invalid UTF-8, and the two JavaScript line separators.
func TestJSONStringMatchesEncodingJSON(t *testing.T) {
	var all strings.Builder
	for c := 0; c < 0x80; c++ {
		all.WriteByte(byte(c))
	}
	for _, s := range []string{
		"",
		"com.example.app",
		all.String(),
		"tab\there\nnew\rret\bback\fform",
		`quote " backslash \ slash /`,
		"<script>&amp;</script>",
		"bad \xff byte, bad \xc3 lead, overlong \xc0\x80, surrogate \xed\xa0\x80",
		"line \xe2\x80\xa8 and paragraph \xe2\x80\xa9 separators",
		"valid multibyte: \xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80",
		"truncated at the end \xe2\x80",
	} {
		if got, want := string(AppendJSONString(nil, s)), encodingJSON(t, s); got != want {
			t.Errorf("%q:\n got %s\nwant %s", s, got, want)
		}
	}
}

// TestJSONFloatMatchesEncodingJSON walks both exponent-form boundaries,
// negative values and the two zeros.
func TestJSONFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, -2.75, 123456789,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-300, 5e-324,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.7976931348623157e308,
	} {
		if got, want := string(AppendJSONFloat(nil, f)), encodingJSON(t, f); got != want {
			t.Errorf("%v: got %s, want %s", f, got, want)
		}
	}
}
