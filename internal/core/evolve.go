package core

import "apichecker/internal/dataset"

// Retrain re-runs the full §4.4 selection and model training against a
// refreshed labelled corpus (the original dataset plus newly labelled
// submissions) and hot-swaps the result into the serving path. This is the
// monthly model-evolution step of §5.3: as the SDK gains APIs and the app
// mix shifts, the key-API set drifts slightly (the paper observes 425-432
// keys over a year) while detection quality stays stable.
//
// The swap goes through SwapModel, so it is atomic with respect to
// concurrent Vets: every in-flight vet finishes wholly on the generation
// it pinned, the verdict-cache epoch advances exactly once, and no verdict
// ever mixes the old and new key-API sets or models.
//
// The corpus must be bound to the checker's universe (retraining after
// Universe.Evolve requires a corpus rebuilt over the evolved universe so
// its generator knows the new APIs).
func (ck *Checker) Retrain(c *dataset.Corpus) (*TrainReport, error) {
	parts, rep, err := trainParts(c, ck.cfg.ModelConfig)
	if err != nil {
		return nil, err
	}
	if _, err := ck.SwapModel(parts); err != nil {
		return nil, err
	}
	return rep, nil
}
