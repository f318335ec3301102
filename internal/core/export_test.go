package core

import (
	"context"

	"apichecker/internal/apk"
	"apichecker/internal/behavior"
	"apichecker/internal/emulator"
	"apichecker/internal/monkey"
)

// PoisonRaw makes the serving generation's emulation panic for one
// archive's program (matched by package name), for the external tests that
// need a vet to panic where a poisoned archive would: inside the pipeline,
// under the verdict cache's singleflight. Call it while ck is idle.
func PoisonRaw(ck *Checker, raw []byte) {
	parsed, err := apk.Parse(raw)
	if err != nil {
		panic(err)
	}
	pkg := parsed.Program.PackageName
	g := ck.gen.Load()
	run := g.Run
	g.Run = func(ctx context.Context, p *behavior.Program, mk monkey.Config) (*emulator.Result, error) {
		if p.PackageName == pkg {
			panic("poisoned archive")
		}
		return run(ctx, p, mk)
	}
}
