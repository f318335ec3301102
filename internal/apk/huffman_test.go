package apk

import (
	"math/bits"
	"math/rand/v2"
	"testing"
)

// buildReference is build as it stood before it took header's counts: it
// counts the lengths itself, places the symbols in canonical order and
// reverses each code with bits.Reverse16, into a table it assumes nothing
// of. The new build is held to it entry for entry.
func buildReference(t []uint32, lens []uint8, root int, syms []uint32) bool {
	var count [16]uint16
	longest := 0
	for _, l := range lens {
		count[l]++
		longest = max(longest, int(l))
	}
	count[0] = 0
	left := 1
	for l := 1; l < len(count); l++ {
		left = left<<1 - int(count[l])
	}
	if left != 0 && longest != 0 && (longest != 1 || count[1] != 1) {
		return false
	}
	var offs [16]uint16
	for l := 1; l < len(offs)-1; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var order [288]uint16
	for s, l := range lens {
		if l != 0 {
			order[offs[l]] = uint16(s)
			offs[l]++
		}
	}
	t[0] = opBad << 8
	mask, size := 1<<root-1, 1
	next, low, sub, start := 1<<root, -1, 0, 0
	code, l := 0, 0
	for _, s := range order[:offs[len(offs)-1]] {
		if sl := int(lens[s]); sl != l {
			code <<= sl - l
			l = sl
			for ; size < 1<<min(l, root); size *= 2 {
				copy(t[size:2*size], t[:size])
			}
		}
		rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
		e := syms[s] | uint32(l)
		switch {
		case l <= root:
			t[rev] = e
		case rev&mask != low:
			low, sub = rev&mask, l-root
			for room := 1 << sub; sub+root < longest; sub++ {
				if room -= int(count[sub+root]); room <= 0 {
					break
				}
				room <<= 1
			}
			if next+1<<sub > len(t) {
				return false
			}
			t[low] = uint32(next)<<16 | uint32(opLink|sub)<<8 | uint32(root)
			start, next = next, next+1<<sub
			fallthrough
		default:
			for i := rev >> root; i < 1<<sub; i += 1 << (l - root) {
				t[start+i] = e
			}
		}
		count[l]--
		code++
	}
	for ; size <= mask; size *= 2 {
		copy(t[size:2*size], t[:size])
	}
	return true
}

// completeLengths returns the lengths of a random complete code of k ≥ 2
// codes none longer than longest: a code split at random leaves, each
// split keeping the code complete.
func completeLengths(rng *rand.Rand, k, longest int) []uint8 {
	lens := []uint8{1, 1}
	for tries := 0; len(lens) < k && tries < 64*k; tries++ {
		if i := rng.IntN(len(lens)); int(lens[i]) < longest {
			lens[i]++
			lens = append(lens, lens[i])
		}
	}
	return lens
}

// codeSet places the code lengths on distinct random symbols of n.
func codeSet(rng *rand.Rand, n int, code []uint8) []uint8 {
	lens := make([]uint8, n)
	for i, s := range rng.Perm(n)[:len(code)] {
		lens[s] = code[i]
	}
	return lens
}

// TestBuildMatchesReference builds random length sets of every shape into
// tables full of garbage: complete codes, a single one-bit code, the empty
// code, and over-subscribed and incomplete ones, for the code-length (7-bit
// root), literal/length (9-bit) and distance (6-bit) tables. build and the
// reference must accept alike and write the same table, entry for entry;
// an accepted table holds no garbage wherever decode can reach.
func TestBuildMatchesReference(t *testing.T) {
	const garbage = 0xdeadbeef
	rng := rand.New(rand.NewPCG(54, 1951))
	var order [288]uint16
	for _, tc := range []struct {
		name          string
		size, root    int
		syms          []uint32
		longest, nsym int
	}{
		{"code-length", 1 << clRoot, clRoot, litSyms[:len(clOrder)], 7, len(clOrder)},
		{"literal/length", maxLit, litRoot, litSyms[:], 15, 286},
		{"distance", maxDist, distRoot, distSyms[:], 15, 30},
	} {
		shapes := map[string]int{}
		for trial := range 40000 / 3 {
			k := 2 + rng.IntN(tc.nsym-1)
			code := completeLengths(rng, k, tc.longest)
			shape := "complete"
			switch trial % 8 {
			case 0:
				code, shape = []uint8{1}, "single one-bit"
			case 1:
				code, shape = nil, "empty"
			case 2:
				if len(code) < tc.nsym {
					code, shape = append(code, uint8(1+rng.IntN(tc.longest))), "over-subscribed"
				}
			case 3:
				code, shape = code[1:], "incomplete"
			}
			lens := codeSet(rng, tc.nsym, code)
			want, got := make([]uint32, tc.size), make([]uint32, tc.size)
			for i := range want {
				want[i], got[i] = garbage, garbage
			}
			count := lengthCounts(lens)
			okWant := buildReference(want, lens, tc.root, tc.syms)
			okGot := build(got, lens, &count, tc.root, tc.syms, &order)
			if okWant != okGot {
				t.Fatalf("%s, %s code %v: build accepts %v, the reference %v", tc.name, shape, lens, okGot, okWant)
			}
			if !okWant {
				shapes[shape+" refused"]++
				continue
			}
			shapes[shape+" accepted"]++
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, %s code %v: entry %d is %#x, the reference's %#x", tc.name, shape, lens, i, got[i], want[i])
				}
			}
			for i, e := range got[:1<<tc.root] {
				reach := []uint32{e}
				if e&(opLink<<8) != 0 {
					reach = got[e>>16 : e>>16+1<<(e>>8&15)]
				}
				for _, r := range reach {
					if r == garbage {
						t.Fatalf("%s, %s code %v: root entry %d reaches an entry build never wrote", tc.name, shape, lens, i)
					}
				}
			}
		}
		for _, shape := range []string{"complete accepted", "single one-bit accepted", "empty accepted", "over-subscribed refused", "incomplete refused"} {
			if shapes[shape] == 0 {
				t.Errorf("%s: no code was %s", tc.name, shape)
			}
		}
		t.Logf("%s: %v", tc.name, shapes)
	}
}
