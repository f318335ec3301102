// Distribute: the §5.4 model-distribution story. A large market trains
// APICHECKER on its ground-truth corpus, exports the model as one APKMODEL
// artifact (universe identity, key-API selection, forest, triage model),
// and a smaller market imports it to vet submissions without owning any
// training data or spending any training compute.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"apichecker"
)

func main() {
	u, err := apichecker.NewUniverse(6000, 8)
	if err != nil {
		log.Fatal(err)
	}

	// The large market: owns ground truth, trains, exports.
	groundTruth, err := apichecker.NewCorpus(u, 1500, 8)
	if err != nil {
		log.Fatal(err)
	}
	// The big market serves two tiers: a manifest-only triage model answers
	// what it is confident about, the emulator the rest. Both models and
	// the band travel in the artifact.
	cfg := apichecker.DefaultConfig()
	cfg.TriageLo, cfg.TriageHi = 0.05, 0.95
	big, report, err := apichecker.Train(groundTruth, cfg)
	if err != nil {
		log.Fatal(err)
	}
	var model bytes.Buffer
	if err := apichecker.ExportModel(big, &model); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("large market: trained on %d apps (%d key APIs), exported model: %d KiB\n",
		groundTruth.Len(), report.KeyAPIs, model.Len()/1024)

	// The small market: imports and vets. It needs only the model blob —
	// the framework universe is rebuilt from it.
	small, err := apichecker.ImportModel(&model)
	if err != nil {
		log.Fatal(err)
	}
	day, err := apichecker.NewCorpus(small.Universe(), 300, 99)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	correct, flagged, tier1 := 0, 0, 0
	for i := 0; i < day.Len(); i++ {
		v, err := small.Vet(context.Background(), apichecker.Submission{Program: day.Program(i)})
		if err != nil {
			log.Fatal(err)
		}
		if v.Malicious {
			flagged++
		}
		if v.Tier == 1 {
			tier1++
		}
		if v.Malicious == (day.Apps[i].Label == apichecker.Malicious) {
			correct++
		}
	}
	fmt.Printf("small market: vetted %d submissions in %s (flagged %d, %d answered at tier 1, accuracy %.1f%%)\n",
		day.Len(), time.Since(start).Round(time.Millisecond),
		flagged, tier1, 100*float64(correct)/float64(day.Len()))
	fmt.Println("zero training data, zero training compute on the small market's side.")
}
