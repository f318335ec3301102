package core

import (
	"bytes"

	"apichecker/internal/adb"
	"apichecker/internal/pipeline"
)

// PoisonRaw makes the serving generation's device run panic for one
// archive, for the external tests that need a vet to panic where a
// poisoned archive would: inside the pipeline, under the verdict cache's
// singleflight. Call it while ck is idle.
func PoisonRaw(ck *Checker, raw []byte) {
	mg := ck.gen.Load().mg
	run := mg.RunRaw
	mg.RunRaw = func(vc *pipeline.VetContext) (*adb.VetResult, error) {
		if bytes.Equal(vc.Sub.Raw, raw) {
			panic("poisoned archive")
		}
		return run(vc)
	}
}
