package pipeline

import (
	"context"
	"sync"
	"sync/atomic"

	"apichecker/internal/obs"
)

// VetContext pooling.
//
// The serving path builds one VetContext per submission; under cache-heavy
// duplicate traffic that context (plus its span log and feature-vector
// scratch) dominated per-submission garbage. Contexts are recycled through
// a sync.Pool: AcquireContext hands out a cleared shell whose Spans and
// vector scratch keep their backing arrays, ReleaseContext scrubs every
// per-submission field and returns it.
//
// The aliasing discipline that makes recycling safe:
//
//   - the Verdict is always freshly allocated (Infer on the emulated path,
//     DecodeEntry's caller-owned copy on the hit path) — it never points
//     into the pooled context, so callers keep it after release;
//   - cache entries are flat []byte copies (EncodeEntry), so nothing the
//     cache retains aliases the pooled Vector scratch;
//   - no driver returns Spans: their backing array is recycled, so a
//     caller wanting a submission's span log attaches an obs sink.
//
// PoisonReleased flips released storage to garbage before reuse; the
// pool-aliasing tests run the full serving path under -race with poisoning
// on and assert verdicts stay bit-identical — proof no live result reads
// recycled memory.
var ctxPool = sync.Pool{New: func() any { return new(VetContext) }}

// PoisonReleased, when enabled (tests only), scribbles sentinel garbage
// over the recycled backing arrays in ReleaseContext. Any verdict, span
// log, or cache entry still aliasing pooled storage turns visibly corrupt.
var PoisonReleased atomic.Bool

// AcquireContext returns a cleared VetContext bound to one submission.
// Pair with ReleaseContext.
func AcquireContext(ctx context.Context, sub *Submission) *VetContext {
	vc := ctxPool.Get().(*VetContext)
	vc.Ctx = ctx
	vc.Sub = sub
	return vc
}

// ReleaseContext scrubs vc and recycles it. The caller must be done with
// everything reachable through vc except the Verdict (never pooled); in
// particular vc.Spans and vc.Vector storage will be reused by a future
// submission.
func ReleaseContext(vc *VetContext) {
	spans, vec := vc.Spans, vc.Vector
	if PoisonReleased.Load() {
		for i := range spans {
			spans[i] = obs.Event{Name: "POISON", Note: "recycled span storage", Trace: -1}
		}
		for i := range vec {
			vec[i] = 0xDEADBEEFDEADBEEF
		}
	}
	*vc = VetContext{Spans: spans[:0], Vector: vec[:0]}
	ctxPool.Put(vc)
}
