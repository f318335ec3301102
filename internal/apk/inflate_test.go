package apk

import (
	"archive/zip"
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"testing"

	"apichecker/internal/dataset"
	"apichecker/internal/framework"
)

// flateInflater is a pooled flate reader and the bytes.Reader it reads,
// which is an io.ByteReader, so flate wraps it in no bufio.
type flateInflater struct {
	src   bytes.Reader
	flate io.ReadCloser
	probe [1]byte
}

var flateInflaters = sync.Pool{New: func() any { return new(flateInflater) }}

// flateInflate is the stream half of entry.read as it stood when entries
// inflated through a pooled compress/flate reader: read dst full, then
// probe for one byte more. It is the reference inflate is held to.
func flateInflate(e *entry, name string, dst []byte) error {
	in := flateInflaters.Get().(*flateInflater)
	defer func() {
		in.src.Reset(nil) // a pooled reader must not keep an upload alive
		flateInflaters.Put(in)
	}()
	in.src.Reset(e.body)
	var rd io.Reader = &in.src
	if e.method == methodDeflate {
		if in.flate == nil {
			in.flate = flate.NewReader(&in.src)
		} else if err := in.flate.(flate.Resetter).Reset(&in.src, nil); err != nil {
			return err
		}
		rd = in.flate
	}
	if _, err := io.ReadFull(rd, dst); err != nil {
		return fmt.Errorf("entry %s shorter than declared %d bytes: %w", name, len(dst), err)
	}
	if n, err := rd.Read(in.probe[:]); n != 0 || (err != nil && err != io.EOF) {
		return fmt.Errorf("entry %s longer than declared %d bytes", name, len(dst))
	}
	return nil
}

// flateRead is that entry.read whole, CRC-32 included: BenchmarkInflate's
// flate arm, and the texts TestInflateEdgeCases holds entry.read to.
func flateRead(e *entry, name string, dst []byte) error {
	if err := flateInflate(e, name, dst); err != nil {
		return err
	}
	if crc32.ChecksumIEEE(dst) != e.crc {
		return fmt.Errorf("entry %s fails its CRC-32", name)
	}
	return nil
}

// bitWriter writes a DEFLATE stream by hand, first bit lowest.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) *bitWriter {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

// code writes an n-bit Huffman code, most significant bit first.
func (w *bitWriter) code(c uint16, n uint8) *bitWriter {
	return w.bits(uint64(bits.Reverse16(c)>>(16-n)), uint(n))
}

// align pads to the next byte boundary.
func (w *bitWriter) align() *bitWriter { return w.bits(0, (8-w.n)%8) }

func (w *bitWriter) bytes() []byte { return w.align().out }

// header writes a block header.
func (w *bitWriter) header(final bool, typ uint64) *bitWriter {
	f := uint64(0)
	if final {
		f = 1
	}
	return w.bits(f, 1).bits(typ, 2)
}

// stored writes a stored block holding p.
func (w *bitWriter) stored(final bool, p string) *bitWriter {
	w.header(final, 0).align().bits(uint64(len(p)), 16).bits(uint64(^uint16(len(p))), 16)
	for _, c := range []byte(p) {
		w.bits(uint64(c), 8)
	}
	return w
}

// fixed writes a symbol of the fixed literal/length code.
func (w *bitWriter) fixed(s int) *bitWriter {
	switch {
	case s < 144:
		return w.code(uint16(0x30+s), 8)
	case s < 256:
		return w.code(uint16(0x190+s-144), 9)
	case s < 280:
		return w.code(uint16(s-256), 7)
	}
	return w.code(uint16(0xc0+s-280), 8)
}

// clHeader writes a dynamic block's header up to its code lengths, under
// a code-length code of 4-bit codes for the lengths 0–12 and the repeat
// codes 16–18.
func (w *bitWriter) clHeader(final bool, nlit, ndist int) *bitWriter {
	w.header(final, 2).bits(uint64(nlit-257), 5).bits(uint64(ndist-1), 5).bits(19-4, 4)
	for _, s := range clOrder {
		if s < 13 || s > 15 {
			w.bits(4, 3)
		} else {
			w.bits(0, 3)
		}
	}
	return w
}

// cl writes code-length symbol s: a length up to 12, or a repeat code
// 16–18 and its extra bits.
func (w *bitWriter) cl(s int, extra uint64) *bitWriter {
	if s < 16 {
		return w.code(uint16(s), 4)
	}
	return w.code(uint16(s-3), 4).bits(extra, []uint{2, 3, 7}[s-16])
}

// dynamic writes a dynamic block's header, each length its own symbol,
// and returns the literal/length and distance codes.
func (w *bitWriter) dynamic(final bool, litLens, distLens []uint8) (lit, dist []uint16) {
	w.clHeader(final, len(litLens), len(distLens))
	for _, l := range slices.Concat(litLens, distLens) {
		w.cl(int(l), 0)
	}
	return canonical(litLens), canonical(distLens)
}

// canonical assigns RFC 1951's canonical codes to the lengths.
func canonical(lens []uint8) []uint16 {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l, code := 1, uint16(0); l < len(next); l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	codes := make([]uint16, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// litLens returns n code lengths, zero but for the given symbols'.
func litLens(n int, set map[int]uint8) []uint8 {
	lens := make([]uint8, n)
	for s, l := range set {
		lens[s] = l
	}
	return lens
}

// deflate compresses p with flate at level.
func deflate(tb testing.TB, p []byte, level int) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	w.Write(p)
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// literalBlock is a dynamic block of 'a', 'a', a three-byte match at
// distance 1 when match is set, then the end of block, under a distance
// code of the given lengths (possibly empty, or one one-bit code).
func literalBlock(match bool, distLens []uint8) []byte {
	var w bitWriter
	lens := litLens(258, map[int]uint8{'a': 1, 256: 2, 257: 2})
	lit, dist := w.dynamic(true, lens, distLens)
	w.code(lit['a'], 1).code(lit['a'], 1)
	if match {
		w.code(lit[257], 2).code(dist[0], distLens[0])
	}
	return w.code(lit[256], 2).bytes()
}

// hostileStream is a stream flate refuses, and what a decoder that skipped
// the check it fails would decode from it.
type hostileStream struct {
	stream  []byte
	lenient string
}

// hostileStreams are the streams flate refuses, by name.
func hostileStreams() map[string]hostileStream {
	var over, incomplete, lit287, dist31, repeatPast, before, eobPast bitWriter
	lit, _ := over.dynamic(true, litLens(257, map[int]uint8{'a': 1, 'b': 1, 256: 1}), []uint8{0})
	over.code(lit['b'], 1).code(lit[256], 1) // the end of block took the code of 'a'
	lit, _ = incomplete.dynamic(true, litLens(257, map[int]uint8{'a': 2, 256: 2}), []uint8{0})
	incomplete.code(lit['a'], 2).code(lit[256], 2)
	lit, _ = lit287.dynamic(true, litLens(287, map[int]uint8{'a': 1, 256: 2, 286: 2}), []uint8{0})
	lit287.code(lit['a'], 1).code(lit[256], 2)
	lit, _ = dist31.dynamic(true, litLens(257, map[int]uint8{'a': 1, 256: 1}), make([]uint8, 31))
	dist31.code(lit['a'], 1).code(lit[256], 1)
	// 97 zeros, 'a', 158 zeros, the end of block, then 3 zeros for 1 length.
	repeatPast.clHeader(true, 257, 1).cl(18, 97-11).cl(1, 0).cl(18, 127).cl(18, 20-11).cl(1, 0).cl(17, 0)
	repeatPast.code(0, 1).code(1, 1)
	before.header(true, 1).fixed(257).code(0, 5).fixed(256)
	eob := eobPast.header(true, 1).fixed('a').fixed('b').fixed(256).bytes() // 26 bits
	past := new(bitWriter).stored(true, "0123456789").bytes()
	past[1], past[3] = 100, ^byte(100) // LEN and NLEN past the input
	nlen := new(bitWriter).stored(true, "abc").bytes()
	nlen[3] ^= 1
	far := strings.Repeat("x", 40000)
	return map[string]hostileStream{
		"over-subscribed code":                       {over.bytes(), "b"},
		"incomplete code":                            {incomplete.bytes(), "a"},
		"287 literal/length codes":                   {lit287.bytes(), "a"},
		"31 distance codes":                          {dist31.bytes(), "a"},
		"repeat with no previous length":             {new(bitWriter).clHeader(true, 257, 1).cl(16, 0).bytes(), ""},
		"repeat past the lengths":                    {repeatPast.bytes(), "a"},
		"literal block using an empty distance code": {literalBlock(true, []uint8{0}), "aaaaa"},
		"fixed symbol 286":                           {new(bitWriter).header(true, 1).fixed('a').fixed(286).code(0, 5).fixed(256).bytes(), strings.Repeat("a", 259)},
		"fixed distance code 30":                     {new(bitWriter).stored(false, far).header(true, 1).fixed(257).code(30, 5).bits(0, 13).fixed(256).bytes(), far + "xxx"},
		"distance before the start":                  {before.bytes(), "\x00\x00\x00"},
		"end of block past the input":                {eob[:len(eob)-1], "ab"}, // its last two bits, both zero
		"block past the input":                       {past, "0123456789"},
		"stored NLEN not the complement of LEN":      {nlen, "abc"},
	}
}

// literalRun is a final fixed block of n literals, then the end of block.
func literalRun(n int) []byte {
	var w bitWriter
	w.header(true, 1)
	for i := range n {
		w.fixed('a' + i%26)
	}
	return w.fixed(256).bytes()
}

// edgeCase is a stream, the destination length it is read into, and what
// both decoders answer: "" for accepted, else a phrase both refusals contain.
type edgeCase struct {
	name   string
	stream []byte
	size   int
	want   string
}

// literalRuns are the corners of a run of literals: where the input left
// is too short to refill eight bytes at a time, and where the destination
// fills (with trailing bytes, so the run is not near the input's end).
func literalRuns() []edgeCase {
	trailed := append(literalRun(40), "bytes after the final block"...)
	return []edgeCase{
		{"a literal run into the last 8 input bytes", literalRun(64), 64, ""},
		{"a literal run filling the destination, then its end", trailed, 40, ""},
		{"a literal run one byte longer than the destination", trailed, 39, "longer than declared"},
		{"a stream cut off inside a literal run", literalRun(64)[:32], 64, "shorter than declared"},
	}
}

// goldenEntries returns the compressed bytes of every entry of every
// golden archive.
func goldenEntries(tb testing.TB) [][]byte {
	var out [][]byte
	for _, data := range goldenArchives(tb) {
		zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			tb.Fatal(err)
		}
		for _, f := range zr.File {
			rc, err := f.OpenRaw()
			if err != nil {
				tb.Fatal(err)
			}
			body, err := io.ReadAll(rc)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, body)
		}
	}
	return out
}

// FuzzInflateMatchesFlate holds inflate to compress/flate: on any input
// and any destination length, both accept or both refuse, and what they
// accept they decode alike. The length is flate's output length (up to
// 256 KiB) plus the fuzzed slack, so exact, short and long destinations
// are all reached.
func FuzzInflateMatchesFlate(f *testing.F) {
	for _, body := range goldenEntries(f) {
		f.Add(body, int16(0))
	}
	text := []byte(strings.Repeat("<uses-permission android:name=\"android.permission.SEND_SMS\"/>\n", 40))
	for level := flate.HuffmanOnly; level <= flate.BestCompression; level++ {
		f.Add(deflate(f, text, level), int16(0))
	}
	f.Add(deflate(f, nil, flate.DefaultCompression), int16(0))
	f.Add(new(bitWriter).stored(false, "stored ").stored(true, "twice").bytes(), int16(0))
	f.Add(new(bitWriter).stored(true, "").bytes(), int16(0))
	for _, h := range hostileStreams() {
		refused, _ := io.ReadAll(flate.NewReader(bytes.NewReader(h.stream)))
		f.Add(h.stream, int16(len(h.lenient)-len(refused)))
	}
	for _, c := range literalRuns() {
		full, _ := io.ReadAll(flate.NewReader(bytes.NewReader(c.stream)))
		f.Add(c.stream, int16(c.size-len(full)))
	}
	f.Add(deflate(f, text, flate.BestSpeed), int16(-1))
	f.Add(deflate(f, text, flate.BestSpeed), int16(1))
	f.Add(deflate(f, text, flate.BestSpeed)[:20], int16(0))

	f.Fuzz(func(t *testing.T, src []byte, slack int16) {
		full, _ := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(src)), 1<<18))
		n := max(0, len(full)+int(slack))
		want, got := make([]byte, n), make([]byte, n)
		wantErr := flateInflate(&entry{method: methodDeflate, body: src}, "e", want)
		k, err := inflate(got, src)
		if (wantErr == nil) != (err == nil && k == n) {
			t.Fatalf("%d-byte destination: flate %v, inflate %d bytes, %v", n, wantErr, k, err)
		}
		if wantErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("%d-byte destination: inflate decoded differently from flate", n)
		}
	})
}

// TestInflateEdgeCases holds the corners of the accept set to flate's
// verdict: want is "" for accepted, else a phrase both refusals contain.
func TestInflateEdgeCases(t *testing.T) {
	payload := []byte(strings.Repeat("android.permission.INTERNET ", 30))
	stream := deflate(t, payload, flate.BestCompression)
	var between bitWriter
	between.header(false, 1).fixed('a').fixed('b').fixed(256).stored(false, "xyz").header(true, 1).fixed('c').fixed(256)

	hostile := hostileStreams()
	cases := []edgeCase{
		{"trailing bytes after the final block", append(slices.Clip(stream), "trailing"...), len(payload), ""},
		{"a single one-bit distance code", literalBlock(true, []uint8{1}), 5, ""},
		{"a literal-only block with an empty distance code", literalBlock(false, []uint8{0}), 2, ""},
		{"the same block using a distance", hostile["literal block using an empty distance code"].stream, 5, "shorter than declared"},
		{"a stored block between two Huffman blocks", between.bytes(), 6, ""},
		{"destination one byte short", stream, len(payload) - 1, "longer than declared"},
		{"destination one byte long", stream, len(payload) + 1, "shorter than declared"},
		{"a zero-length entry", deflate(t, nil, flate.DefaultCompression), 0, ""},
		{"a refused stream into a zero-length entry", hostile["incomplete code"].stream, 0, "longer than declared"},
	}
	cases = append(cases, literalRuns()...)
	// A hostile stream is refused at the length and CRC-32 of what it
	// would decode to if the check it fails were skipped.
	for name, h := range hostile {
		cases = append(cases, edgeCase{name, h.stream, len(h.lenient), "than declared"})
	}
	for _, tc := range cases {
		full, _ := io.ReadAll(flate.NewReader(bytes.NewReader(tc.stream)))
		if h, ok := hostile[tc.name]; ok {
			full = []byte(h.lenient)
		}
		e := &entry{method: methodDeflate, body: tc.stream, crc: crc32.ChecksumIEEE(full)}
		want, got := make([]byte, tc.size), make([]byte, tc.size)
		for side, err := range map[string]error{"flate": flateRead(e, "e", want), "inflate": e.read("e", got)} {
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("%s: %s = %v, want %q", tc.name, side, err, tc.want)
			}
		}
		if !bytes.Equal(got, want) && tc.want == "" {
			t.Errorf("%s: inflate decoded %q, flate %q", tc.name, got, want)
		}
	}
}

// TestInflateAllocs: decoding into a caller's destination allocates nothing.
func TestInflateAllocs(t *testing.T) {
	a, err := Open(goldenArchives(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.files {
		e := &a.files[i]
		dst := make([]byte, e.usize)
		if n := testing.AllocsPerRun(20, func() {
			if err := e.read(loadEntries[i], dst); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocations per inflate, want 0", loadEntries[i], n)
		}
	}
}

// BenchmarkInflate reads the manifest and behaviour entries of the first
// 400 archives of the standing benchmark's seed-1 payloads (6,000-API
// universe) into a destination of the declared size, CRC-32 included:
// flate is the pooled compress/flate reader entry.read used before, arena
// the package's own decoder. The manifest and program arms run the arena
// decoder on one kind of entry each: a manifest is short and repetitive, so
// its dynamic header dominates; a program is mostly literals. One op is one
// entry.
func BenchmarkInflate(b *testing.B) {
	cfg := framework.TestConfig(6000)
	cfg.Seed = 1
	u, err := framework.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dcfg := dataset.DefaultConfig()
	dcfg.Seed, dcfg.NumApps = 1+11, 400 // bench/ draws its payloads from seed+11
	corpus, err := dataset.Generate(u, dcfg)
	if err != nil {
		b.Fatal(err)
	}
	var entries []*entry // a manifest, then a program, per archive
	size := 0
	for i := range corpus.Apps {
		data, err := Build(corpus.Program(i), u)
		if err != nil {
			b.Fatal(err)
		}
		a, err := Open(data)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range []int{entryManifest, entryProgram} {
			entries = append(entries, &a.files[k])
			size = max(size, int(a.files[k].usize))
		}
	}
	dst := make([]byte, size)
	for _, arm := range []struct {
		name        string
		read        func(e *entry, name string, dst []byte) error
		first, step int // the entries the arm reads
	}{
		{"flate", flateRead, 0, 1},
		{"arena", (*entry).read, 0, 1},
		{"manifest", (*entry).read, 0, 2},
		{"program", (*entry).read, 1, 2},
	} {
		var mine []*entry
		for i := arm.first; i < len(entries); i += arm.step {
			mine = append(mine, entries[i])
		}
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := mine[i%len(mine)]
				if err := arm.read(e, "e", dst[:e.usize]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
