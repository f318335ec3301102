// Command apichecker trains the vetting pipeline on a synthetic
// ground-truth corpus and vets APK files (e.g. those produced by apkgen).
//
// Usage:
//
//	apichecker -universe-apis 10000 -seed 1 -train-apps 2000 corpus/*.apk
//
// The universe parameters must match the apkgen run that produced the
// APKs. With no APK arguments it prints the training report and vets a
// small self-generated demo batch.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"apichecker"
	"apichecker/internal/analysislog"
)

func main() {
	var (
		apis      = flag.Int("universe-apis", 10000, "framework universe size")
		seed      = flag.Int64("seed", 1, "global random seed")
		trainApps = flag.Int("train-apps", 1500, "ground-truth corpus size for training")
		logPath   = flag.String("log", "", "write per-app analysis logs (JSONL) to this file")
	)
	flag.Parse()

	u, err := apichecker.NewUniverse(*apis, *seed)
	if err != nil {
		fail(err)
	}
	corpus, err := apichecker.NewCorpus(u, *trainApps, *seed+1000)
	if err != nil {
		fail(err)
	}
	fmt.Printf("training on %d ground-truth apps (%d malicious)...\n", corpus.Len(), corpus.Positives())
	start := time.Now()
	// The verdict cache is off, so every argument, a repeated file too, is
	// emulated and gets its analysis-log record.
	cfg := apichecker.DefaultConfig()
	cfg.VerdictCache = -1
	checker, rep, err := apichecker.Train(corpus, cfg)
	if err != nil {
		fail(err)
	}
	fmt.Printf("trained in %s: %d key APIs (Set-C %d, Set-P %d, Set-S %d), %d features\n",
		time.Since(start).Round(time.Millisecond), rep.KeyAPIs, rep.SetC, rep.SetP, rep.SetS, rep.Features)

	if *logPath != "" {
		f, err := os.Create(*logPath)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		logWriter = analysislog.NewWriter(f)
		defer func() {
			if err := logWriter.Flush(); err != nil {
				fail(err)
			}
			fmt.Printf("wrote %d analysis-log records to %s\n", logWriter.Count(), *logPath)
		}()
	}

	files := flag.Args()
	if len(files) == 0 {
		fmt.Println("no APKs given; vetting a self-generated demo batch")
		demo, err := apichecker.NewCorpus(u, demoApps, *seed+2000)
		if err != nil {
			fail(err)
		}
		for i := 0; i < demo.Len(); i++ {
			data, err := apichecker.BuildAPK(demo.Program(i), u)
			if err != nil {
				fail(err)
			}
			vetOne(checker, fmt.Sprintf("demo:%s", demo.Apps[i].Spec.PackageName), data)
		}
		return
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			fail(err)
		}
		vetOne(checker, path, data)
	}
}

// demoApps is the demo batch's size: the smallest corpus the dataset
// generator accepts.
const demoApps = 20

// logWriter, when non-nil, records every vetted app's analysis log.
var logWriter *analysislog.Writer

func vetOne(checker *apichecker.Checker, name string, data []byte) {
	v, run, err := checker.VetRun(context.Background(), apichecker.Submission{Raw: data})
	if err != nil {
		fail(fmt.Errorf("%s: %w", name, err))
	}
	if logWriter != nil {
		rec := analysislog.FromResult(v.Package, v.VersionCode, v.Digest, run, checker.Universe())
		if err := logWriter.Write(rec); err != nil {
			fail(err)
		}
	}
	verdict := "BENIGN"
	if v.Malicious {
		verdict = "MALICIOUS"
	}
	note := ""
	if v.FellBack {
		note = " [fell back to stock emulator]"
	}
	fmt.Printf("%-50s %-9s score=%+.3f scan=%s keyAPIs=%d sha256=%s%s\n",
		name, verdict, v.Score, v.ScanTime.Round(time.Second), v.InvokedKeyAPIs, shortDigest(v.Digest), note)
}

func shortDigest(dig string) string {
	if len(dig) > 12 {
		return dig[:12]
	}
	return dig
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "apichecker:", err)
	os.Exit(1)
}
