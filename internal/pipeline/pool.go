package pipeline

import (
	"context"
	"sync"
	"sync/atomic"

	"apichecker/internal/behavior"
	"apichecker/internal/emulator"
	"apichecker/internal/hook"
	"apichecker/internal/manifest"
)

// VetContext pooling.
//
// The serving path builds one VetContext per submission; under cache-heavy
// duplicate traffic that context (plus its feature-vector scratch)
// dominated per-submission garbage. Contexts are recycled through a
// sync.Pool: AcquireContext hands out a cleared shell whose vector scratch
// keeps its backing array and whose miss scratch keeps the archive handle,
// the decoders and the emulation run a miss refills, ReleaseContext scrubs
// every per-submission field and returns it.
//
// The aliasing discipline that makes recycling safe:
//
//   - the Verdict is always freshly allocated (infer on the emulated path,
//     DecodeEntry's caller-owned copy on the hit path) — it never points
//     into the pooled context, so callers keep it after release, and its
//     strings are never bytes the scratch reuses;
//   - cache entries are flat []byte copies (EncodeEntry), so nothing the
//     cache retains aliases the pooled Vector scratch;
//   - a caller that keeps the emulation run copies it out before release
//     (core's VetRun, with emulator.Result.Clone).
//
// PoisonReleased flips released storage to garbage before reuse; the
// pool-aliasing tests run the full serving path under -race with poisoning
// on and assert verdicts stay bit-identical — proof no live result reads
// recycled memory.
var ctxPool = sync.Pool{New: func() any { return &VetContext{scratch: new(scratch)} }}

// PoisonReleased, when enabled (tests only), scribbles sentinel garbage
// over the recycled vector scratch and the miss scratch in ReleaseContext.
// Any verdict, cache entry or kept run still aliasing pooled storage turns
// visibly corrupt, and so does a later vet that reads what its own decode
// or run did not overwrite.
var PoisonReleased atomic.Bool

// AcquireContext returns a cleared VetContext bound to a copy of one
// submission; a nil ctx means context.Background. Pair with
// ReleaseContext.
func AcquireContext(ctx context.Context, sub *Submission) *VetContext {
	if ctx == nil {
		ctx = context.Background()
	}
	vc := ctxPool.Get().(*VetContext)
	vc.Ctx = ctx
	vc.sub = *sub
	vc.Sub = &vc.sub
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
		vc.poison()
	}
	*vc = VetContext{Vector: vec[:0], scratch: vc.scratch}
	ctxPool.Put(vc)
}

// poison scribbles over the parts of the miss scratch this vet filled: the
// run's result, the log's arena, intents and activities (emptied first, so
// the next run starts clean), and, for a raw archive, every slice of the
// decoded program and manifest. A behaviour-program submission's Program
// is the caller's, and is left alone.
func (vc *VetContext) poison() {
	const bad = 0xDEADBEEFDEADBEEF
	if res := vc.Run; res != nil {
		log := res.Log
		log.Reset(log.Registry())
		invs := log.Invocations()
		invs = invs[:cap(invs)]
		for i := range invs {
			invs[i] = hook.Invocation{Count: bad, API: -1}
		}
		intents := log.Intents()
		intents = intents[:cap(intents)]
		for i := range intents {
			intents[i] = hook.IntentSend{ID: -1, Count: bad}
		}
		acts := log.ReachedActivities
		acts = acts[:cap(acts)]
		for i := range acts {
			acts[i] = "POISONED"
		}
		*res = emulator.Result{Log: log, VirtualTime: -1, Events: -1, RAC: -1, Crashed: -1, Profile: "POISONED"}
	}
	if vc.Archive == nil {
		return
	}
	if p := vc.Program; p != nil {
		poisonActivities(p.Activities)
		if p.Payload != nil {
			poisonActivities(p.Payload.Activities)
		}
		for i := range p.ReceiverIntents {
			p.ReceiverIntents[i] = -1
		}
		for i := range p.Permissions {
			p.Permissions[i] = -1
		}
		for i := range p.NativeLibs {
			p.NativeLibs[i] = "POISONED"
		}
	}
	if m := vc.Manifest; m != nil {
		for i := range m.Permissions {
			m.Permissions[i].Name = "POISONED"
		}
		app := &m.Application
		for i := range app.Activities {
			a := &app.Activities[i]
			a.Name, a.Exported = "POISONED", true
			poisonFilters(a.Filters)
		}
		for i := range app.Services {
			app.Services[i].Name = "POISONED"
		}
		for i := range app.Receivers {
			app.Receivers[i].Name = "POISONED"
			poisonFilters(app.Receivers[i].Filters)
		}
	}
}

func poisonActivities(acts []behavior.ActivityBehavior) {
	for i := range acts {
		a := &acts[i]
		for _, rates := range [2][]behavior.APIRate{a.Direct, a.Reflection} {
			for j := range rates {
				rates[j] = behavior.APIRate{API: -1, Rate: -1}
			}
		}
		for j := range a.SendIntents {
			a.SendIntents[j] = -1
		}
		a.Name, a.Referenced, a.ReachRate, a.MaliciousPayload = "POISONED", true, -1, true
	}
}

func poisonFilters(filters []manifest.IntentFilter) {
	for _, f := range filters {
		for j := range f.Actions {
			f.Actions[j].Name = "POISONED"
		}
	}
}
