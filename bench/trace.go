package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"apichecker/internal/adb"
	"apichecker/internal/apk"
	"apichecker/internal/core"
	"apichecker/internal/emulator"
	"apichecker/internal/features"
	"apichecker/internal/hook"
	"apichecker/internal/ml"
	"apichecker/internal/pipeline"
)

// The span recorder. Spans are recorded from the benchmark's own files,
// around the calls the generator makes into the program under test; each
// client keeps its spans in memory and they are merged and written once,
// after the traced phase.

// span is one timed call: Start and End are nanoseconds since the traced
// phase began, Parent is the span that caused it (0 for a root), Sub the
// submission both belong to.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Sub    int32  `json:"sub"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef names an open span; the zero value is "no span", which is what
// every tracer method returns with tracing off.
type spanRef struct {
	idx int32 // position in the owning tracer, +1
	id  int32
	sub int32
}

type tracer struct {
	origin time.Time
	ids    *atomic.Int32 // shared by the clients of one traced phase
	spans  []span
	kit    *replayKit
}

func (t *tracer) open(name string, parent, sub int32) spanRef {
	id := t.ids.Add(1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Sub: sub, Name: name, Start: int64(time.Since(t.origin))})
	return spanRef{idx: int32(len(t.spans)), id: id, sub: sub}
}

// root opens the bench.submit span of submission sub.
func (t *tracer) root(sub int32) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.open("bench.submit", 0, sub)
}

// begin opens a child of parent.
func (t *tracer) begin(name string, parent spanRef) spanRef {
	if t == nil {
		return spanRef{}
	}
	return t.open(name, parent.id, parent.sub)
}

func (t *tracer) end(s spanRef) {
	if t != nil {
		t.spans[s.idx-1].End = int64(time.Since(t.origin))
	}
}

// replaySampled is the seeded 1-in-50 choice of submissions whose layers
// are replayed under a core.vet span.
func replaySampled(seed int64, k int) bool {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	h *= 0x94D049BB133111EB
	h ^= h >> 29
	return h%50 == 0
}

// replayKit holds one client's private copies of the layers beneath
// core.Vet, assembled from the checker's own parts, so a sampled
// submission can be walked layer by layer with a span around each call.
type replayKit struct {
	deps    pipeline.Deps
	session *adb.Session
	emu     *emulator.Emulator
	ex      *features.Extractor
	model   *ml.RandomForest
	vec     ml.Vector
}

func newReplayKit(ck *core.Checker) (*replayKit, error) {
	cfg := ck.Config()
	reg, err := hook.NewRegistry(ck.Universe(), ck.Selection().Keys)
	if err != nil {
		return nil, err
	}
	return &replayKit{
		deps:    pipeline.Deps{Events: cfg.Events, Seed: cfg.Seed},
		session: adb.NewSession(adb.NewDevice("bench-5554", cfg.Profile, reg)),
		emu:     emulator.New(cfg.Profile, reg),
		ex:      ck.Extractor(),
		model:   ck.Model(),
	}, nil
}

// replay walks raw through digest, parse, the adb session, feature
// extraction and scoring, calling step around each layer call. The
// emulator run is a second emulation beside the session's own: the call
// the session makes into the emulator cannot be seen from outside it.
func (k *replayKit) replay(raw []byte, step func(name string, call func() error) error) error {
	var (
		dig    string
		parsed *apk.APK
		vr     *adb.VetResult
	)
	ctx := context.Background()
	if err := step("apk.digest", func() error { dig = apk.Digest(raw); return nil }); err != nil {
		return err
	}
	if err := step("apk.parse", func() (err error) { parsed, err = apk.Parse(raw); return err }); err != nil {
		return err
	}
	mk := k.deps.MonkeyFor(dig, 0)
	if err := step("adb.session_vet", func() (err error) { vr, err = k.session.VetParsedContext(ctx, parsed, mk); return err }); err != nil {
		return err
	}
	if err := step("emulator.run", func() error { _, err := k.emu.RunContext(ctx, parsed.Program, mk); return err }); err != nil {
		return err
	}
	if err := step("features.vector", func() (err error) {
		k.vec, err = k.ex.VectorInto(vr.Run.Log, parsed.Manifest, k.vec)
		return err
	}); err != nil {
		return err
	}
	return step("ml.score", func() error { k.model.Score(k.vec); return nil })
}

// traceReplay records one layer replay under a core.vet child of root.
func (t *tracer) traceReplay(raw []byte, root spanRef) error {
	vet := t.begin("core.vet", root)
	defer t.end(vet)
	return t.kit.replay(raw, func(name string, call func() error) error {
		s := t.begin(name, vet)
		defer t.end(s)
		return call()
	})
}

// startTracing gives every client a recorder; stopTracing takes them away
// and returns the merged spans in ID order.
func (b *bed) startTracing() error {
	ids := new(atomic.Int32)
	origin := time.Now()
	for _, c := range b.clients {
		kit, err := newReplayKit(b.ck)
		if err != nil {
			return err
		}
		c.tr = &tracer{origin: origin, ids: ids, kit: kit}
	}
	return nil
}

func (b *bed) stopTracing() []span {
	var all []span
	for _, c := range b.clients {
		all = append(all, c.tr.spans...)
		c.tr = nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}

// spanTotals is one span name's row of the self-time table.
type spanTotals struct {
	Name   string
	Count  int
	MeanUS float64 // mean duration
	SelfUS float64 // mean duration less what child spans cover
}

// selfTimes folds spans by name. A span's self time is its duration minus
// its children's; children here never overlap, since one goroutine records
// a submission's spans in sequence.
func selfTimes(spans []span) []spanTotals {
	children := make(map[int32]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	type acc struct {
		n          int
		dur, selfT int64
	}
	by := map[string]*acc{}
	var order []string
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
			order = append(order, s.Name)
		}
		a.n++
		a.dur += s.End - s.Start
		a.selfT += s.End - s.Start - children[s.ID]
	}
	out := make([]spanTotals, 0, len(order))
	for _, name := range order {
		a := by[name]
		out = append(out, spanTotals{name, a.n, float64(a.dur) / float64(a.n) / 1e3, float64(a.selfT) / float64(a.n) / 1e3})
	}
	return out
}

func printSelfTimes(rows []spanTotals) {
	fmt.Printf("  %-22s %9s %12s %12s\n", "span", "count", "mean_us", "self_us")
	for _, r := range rows {
		fmt.Printf("  %-22s %9d %12.2f %12.2f\n", r.Name, r.Count, r.MeanUS, r.SelfUS)
	}
}

// writeSpans writes a traced phase's spans as one JSON document.
func writeSpans(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
