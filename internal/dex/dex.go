// Package dex models the compiled code section of an APK (classes.dex):
// classes, methods, and the call sites static analysis can see.
//
// The model intentionally captures the three mechanisms the paper cares
// about (§4.5): direct framework-API calls (visible to static analysis and
// to the runtime hook), Java-reflection calls (the target name is an
// opaque runtime-computed string, so static analysis cannot resolve it),
// and intent sends (IPC requests that make *another* process act). It also
// records dynamic code loading, which hides entire call graphs from static
// analysis.
//
// The binary codec is a simple length-prefixed format with a string pool,
// in the spirit of the real DEX layout, built on encoding/binary.
package dex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Magic identifies the serialized form ("godex" + version).
var Magic = [8]byte{'g', 'o', 'd', 'e', 'x', '0', '3', '5'}

// CallKind distinguishes the mechanisms by which app code triggers
// framework behaviour.
type CallKind uint8

const (
	// CallDirect is an ordinary framework API invocation; static
	// analysis sees the target name.
	CallDirect CallKind = iota
	// CallReflection invokes a method via java.lang.reflect; the Target
	// is an obfuscated token, not the real API name.
	CallReflection
	// CallIntentSend passes an Intent to the system (startActivity,
	// sendBroadcast, ...); Target is the intent action.
	CallIntentSend
	// CallStartActivity references another activity class in this app;
	// Target is the activity class name. These references define which
	// declared activities are "actually referenced" (§4.2's RAC
	// denominator).
	CallStartActivity
	// CallLoadDex loads a secondary dex payload at runtime; Target is
	// the asset path. The payload's call sites are invisible statically.
	CallLoadDex
)

func (k CallKind) String() string {
	switch k {
	case CallDirect:
		return "direct"
	case CallReflection:
		return "reflection"
	case CallIntentSend:
		return "intent-send"
	case CallStartActivity:
		return "start-activity"
	case CallLoadDex:
		return "load-dex"
	}
	return fmt.Sprintf("CallKind(%d)", uint8(k))
}

// CallSite is one call instruction in a method body.
type CallSite struct {
	Kind   CallKind
	Target string
}

// Method is one method of a class.
type Method struct {
	Name  string
	Calls []CallSite
}

// Class is one class in the dex. Activity classes model Android
// activities; their names match the manifest's declared activities.
type Class struct {
	Name       string
	IsActivity bool
	Methods    []Method
}

// File is a parsed classes.dex.
type File struct {
	Classes    []Class
	NativeLibs []string // bundled .so names, e.g. "lib/armeabi-v7a/libcore.so"
}

// DirectAPIRefs returns the distinct framework API names reachable by
// static inspection (CallDirect sites only), in first-seen order. This is
// what static baseline detectors (Drebin/DroidAPIMiner style) extract.
func (f *File) DirectAPIRefs() []string {
	var out []string
	seen := make(map[string]bool)
	f.eachCall(func(cs CallSite) {
		if cs.Kind == CallDirect && !seen[cs.Target] {
			seen[cs.Target] = true
			out = append(out, cs.Target)
		}
	})
	return out
}

// IntentActions returns the distinct intent actions appearing at
// CallIntentSend sites.
func (f *File) IntentActions() []string {
	var out []string
	seen := make(map[string]bool)
	f.eachCall(func(cs CallSite) {
		if cs.Kind == CallIntentSend && !seen[cs.Target] {
			seen[cs.Target] = true
			out = append(out, cs.Target)
		}
	})
	return out
}

// ReferencedActivities returns the activity class names referenced from
// code (CallStartActivity targets), deduplicated, in first-seen order.
func (f *File) ReferencedActivities() []string {
	var out []string
	seen := make(map[string]bool)
	f.eachCall(func(cs CallSite) {
		if cs.Kind == CallStartActivity && !seen[cs.Target] {
			seen[cs.Target] = true
			out = append(out, cs.Target)
		}
	})
	return out
}

// UsesReflection reports whether any reflection call site exists.
func (f *File) UsesReflection() bool {
	found := false
	f.eachCall(func(cs CallSite) {
		if cs.Kind == CallReflection {
			found = true
		}
	})
	return found
}

// LoadsDynamicCode reports whether any dynamic-code-loading site exists.
func (f *File) LoadsDynamicCode() bool {
	found := false
	f.eachCall(func(cs CallSite) {
		if cs.Kind == CallLoadDex {
			found = true
		}
	})
	return found
}

func (f *File) eachCall(fn func(CallSite)) {
	for ci := range f.Classes {
		for mi := range f.Classes[ci].Methods {
			for _, cs := range f.Classes[ci].Methods[mi].Calls {
				fn(cs)
			}
		}
	}
}

// NumCallSites returns the total number of call sites.
func (f *File) NumCallSites() int {
	n := 0
	f.eachCall(func(CallSite) { n++ })
	return n
}

// --- binary codec ---

// Encode serializes the file. The layout is:
//
//	magic [8]byte
//	stringPool: u32 count, then per string u32 len + bytes
//	nativeLibs: u32 count, then u32 string indexes
//	classes:    u32 count, then per class:
//	    u32 name index, u8 isActivity, u32 method count, per method:
//	        u32 name index, u32 call count, per call: u8 kind, u32 target index
func (f *File) Encode() ([]byte, error) {
	pool := newStringPool()
	for _, lib := range f.NativeLibs {
		pool.intern(lib)
	}
	for _, c := range f.Classes {
		pool.intern(c.Name)
		for _, m := range c.Methods {
			pool.intern(m.Name)
			for _, cs := range m.Calls {
				if cs.Kind > CallLoadDex {
					return nil, fmt.Errorf("dex: encode: invalid call kind %d", cs.Kind)
				}
				pool.intern(cs.Target)
			}
		}
	}
	if len(pool.strings) > math.MaxUint32 {
		return nil, errors.New("dex: encode: string pool overflow")
	}

	var buf bytes.Buffer
	buf.Write(Magic[:])
	w := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	w(uint32(len(pool.strings)))
	for _, s := range pool.strings {
		w(uint32(len(s)))
		buf.WriteString(s)
	}
	w(uint32(len(f.NativeLibs)))
	for _, lib := range f.NativeLibs {
		w(pool.index[lib])
	}
	w(uint32(len(f.Classes)))
	for _, c := range f.Classes {
		w(pool.index[c.Name])
		if c.IsActivity {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
		w(uint32(len(c.Methods)))
		for _, m := range c.Methods {
			w(pool.index[m.Name])
			w(uint32(len(m.Calls)))
			for _, cs := range m.Calls {
				buf.WriteByte(byte(cs.Kind))
				w(pool.index[cs.Target])
			}
		}
	}
	return buf.Bytes(), nil
}

// maxReasonableCount bounds table sizes while decoding untrusted input.
const maxReasonableCount = 1 << 24

// Smallest encodings of one table element: a count that needs more bytes
// than the input has left is rejected before anything is allocated for it.
const (
	minStringBytes = 4         // u32 length
	minLibBytes    = 4         // u32 name index
	minClassBytes  = 4 + 1 + 4 // name index, isActivity, method count
	minMethodBytes = 4 + 4     // name index, call count
	minCallBytes   = 1 + 4     // kind, target index
)

// Decode parses a serialized dex file. It walks the input with a bounds-
// checked cursor: the blob is copied once into a string and every pooled
// name in the result is a substring of that copy, and each table is
// allocated once, at its declared size, only after that size is known to
// fit in the bytes that remain.
func Decode(data []byte) (*File, error) {
	c := cursor{data: data, str: string(data)}
	if len(data) < len(Magic) {
		return nil, c.truncated()
	}
	if [8]byte(data) != Magic {
		return nil, fmt.Errorf("dex: decode: bad magic %q", data[:len(Magic)])
	}
	c.off = len(Magic)

	nStrings, err := c.count("string pool", minStringBytes)
	if err != nil {
		return nil, err
	}
	c.pool = make([]string, nStrings)
	for i := range c.pool {
		n, err := c.u32()
		if err != nil {
			return nil, err
		}
		if n > maxReasonableCount {
			return nil, fmt.Errorf("dex: decode: string length %d too large", n)
		}
		if int(n) > len(data)-c.off {
			return nil, c.truncated()
		}
		c.pool[i] = c.str[c.off : c.off+int(n)]
		c.off += int(n)
	}

	var f File
	nLibs, err := c.count("native lib", minLibBytes)
	if err != nil {
		return nil, err
	}
	if nLibs > 0 {
		f.NativeLibs = make([]string, nLibs)
	}
	for i := range f.NativeLibs {
		if f.NativeLibs[i], err = c.name(); err != nil {
			return nil, err
		}
	}

	nClasses, err := c.count("class", minClassBytes)
	if err != nil {
		return nil, err
	}
	if nClasses > 0 {
		f.Classes = make([]Class, nClasses)
	}
	for i := range f.Classes {
		cl := &f.Classes[i]
		if cl.Name, err = c.name(); err != nil {
			return nil, err
		}
		isActivity, err := c.u8()
		if err != nil {
			return nil, err
		}
		cl.IsActivity = isActivity == 1
		nMethods, err := c.count("method", minMethodBytes)
		if err != nil {
			return nil, err
		}
		if nMethods > 0 {
			cl.Methods = make([]Method, nMethods)
		}
		for j := range cl.Methods {
			m := &cl.Methods[j]
			if m.Name, err = c.name(); err != nil {
				return nil, err
			}
			nCalls, err := c.count("call", minCallBytes)
			if err != nil {
				return nil, err
			}
			if nCalls > 0 {
				m.Calls = make([]CallSite, nCalls)
			}
			for k := range m.Calls {
				kind, err := c.u8()
				if err != nil {
					return nil, err
				}
				if CallKind(kind) > CallLoadDex {
					return nil, fmt.Errorf("dex: decode: invalid call kind %d", kind)
				}
				m.Calls[k].Kind = CallKind(kind)
				if m.Calls[k].Target, err = c.name(); err != nil {
					return nil, err
				}
			}
		}
	}
	if c.off != len(data) {
		return nil, errors.New("dex: decode: trailing data")
	}
	return &f, nil
}

// cursor reads the dex wire format off a byte slice it never reads past.
// str is the same bytes as one string, so names can be handed out as
// substrings; pool is the decoded string table those names index.
type cursor struct {
	data []byte
	str  string
	off  int
	pool []string
}

func (c *cursor) truncated() error {
	return fmt.Errorf("dex: decode: truncated input: %w", io.ErrUnexpectedEOF)
}

func (c *cursor) u8() (uint8, error) {
	if c.off >= len(c.data) {
		return 0, c.truncated()
	}
	b := c.data[c.off]
	c.off++
	return b, nil
}

func (c *cursor) u32() (uint32, error) {
	if len(c.data)-c.off < 4 {
		return 0, c.truncated()
	}
	v := binary.LittleEndian.Uint32(c.data[c.off:])
	c.off += 4
	return v, nil
}

// count reads a table's element count and rejects it unless that many
// elements of at least minBytes each can still follow: the caller may
// then allocate the table at its declared size.
func (c *cursor) count(table string, minBytes int) (int, error) {
	n, err := c.u32()
	if err != nil {
		return 0, err
	}
	if n > maxReasonableCount {
		return 0, fmt.Errorf("dex: decode: %s count %d too large", table, n)
	}
	if int(n) > (len(c.data)-c.off)/minBytes {
		return 0, c.truncated()
	}
	return int(n), nil
}

// name reads a string-pool index and resolves it.
func (c *cursor) name() (string, error) {
	idx, err := c.u32()
	if err != nil {
		return "", err
	}
	if idx >= uint32(len(c.pool)) {
		return "", fmt.Errorf("dex: decode: string index %d out of range (%d strings)", idx, len(c.pool))
	}
	return c.pool[idx], nil
}

type stringPool struct {
	strings []string
	index   map[string]uint32
}

func newStringPool() *stringPool {
	return &stringPool{index: make(map[string]uint32)}
}

func (p *stringPool) intern(s string) uint32 {
	if i, ok := p.index[s]; ok {
		return i
	}
	i := uint32(len(p.strings))
	p.strings = append(p.strings, s)
	p.index[s] = i
	return i
}
