package pipeline

import (
	"context"
	"sync"
	"sync/atomic"
)

// VetContext pooling.
//
// The serving path builds one VetContext per submission; under cache-heavy
// duplicate traffic that context (plus its feature-vector scratch)
// dominated per-submission garbage. Contexts are recycled through a
// sync.Pool: AcquireContext hands out a cleared shell whose vector scratch
// keeps its backing array, ReleaseContext scrubs every per-submission
// field and returns it.
//
// The aliasing discipline that makes recycling safe:
//
//   - the Verdict is always freshly allocated (infer on the emulated path,
//     DecodeEntry's caller-owned copy on the hit path) — it never points
//     into the pooled context, so callers keep it after release;
//   - cache entries are flat []byte copies (EncodeEntry), so nothing the
//     cache retains aliases the pooled Vector scratch.
//
// PoisonReleased flips released storage to garbage before reuse; the
// pool-aliasing tests run the full serving path under -race with poisoning
// on and assert verdicts stay bit-identical — proof no live result reads
// recycled memory.
var ctxPool = sync.Pool{New: func() any { return new(VetContext) }}

// PoisonReleased, when enabled (tests only), scribbles sentinel garbage
// over the recycled vector scratch in ReleaseContext. Any verdict or cache
// entry still aliasing pooled storage turns visibly corrupt.
var PoisonReleased atomic.Bool

// AcquireContext returns a cleared VetContext bound to one submission; a
// nil ctx means context.Background. Pair with ReleaseContext.
func AcquireContext(ctx context.Context, sub *Submission) *VetContext {
	if ctx == nil {
		ctx = context.Background()
	}
	vc := ctxPool.Get().(*VetContext)
	vc.Ctx = ctx
	vc.Sub = sub
	return vc
}

// ReleaseContext scrubs vc and recycles it. The caller must be done with
// everything reachable through vc except the Verdict (never pooled); in
// particular vc.Vector storage will be reused by a future submission.
func ReleaseContext(vc *VetContext) {
	vec := vc.Vector
	if PoisonReleased.Load() {
		for i := range vec {
			vec[i] = 0xDEADBEEFDEADBEEF
		}
	}
	*vc = VetContext{Vector: vec[:0]}
	ctxPool.Put(vc)
}
