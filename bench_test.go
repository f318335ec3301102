// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus micro-benchmarks of the hot paths. Each experiment
// bench runs the full experiment (measurement sweeps, model training,
// evaluation) once per iteration and reports its headline numbers as
// custom metrics.
//
// Scale defaults to "small" so `go test -bench=. -benchmem` completes in
// minutes; set APICHECKER_BENCH_SCALE=medium|paper for the EXPERIMENTS.md
// record (the paper scale builds the full 50K-API universe).
package apichecker

import (
	"bytes"
	"context"
	"io"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"apichecker/internal/apk"
	"apichecker/internal/behavior"
	"apichecker/internal/core"
	"apichecker/internal/dataset"
	"apichecker/internal/dex"
	"apichecker/internal/emulator"
	"apichecker/internal/experiments"
	"apichecker/internal/features"
	"apichecker/internal/framework"
	"apichecker/internal/hook"
	"apichecker/internal/lifecycle"
	"apichecker/internal/manifest"
	"apichecker/internal/market"
	"apichecker/internal/ml"
	"apichecker/internal/modelstore"
	"apichecker/internal/monkey"
	"apichecker/internal/vetsvc"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		name := os.Getenv("APICHECKER_BENCH_SCALE")
		if name == "" {
			name = "small"
		}
		scale, err := experiments.ScaleByName(name)
		if err != nil {
			benchErr = err
			return
		}
		benchEnv, benchErr = experiments.NewEnv(scale, 1)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// out returns the stream experiment rows are printed to; verbose runs show
// them, quiet runs discard them.
func out() io.Writer {
	if testing.Verbose() {
		return os.Stdout
	}
	return io.Discard
}

func BenchmarkTable1(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Table1(out())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(100*last.Precision, "apichecker-P%")
		b.ReportMetric(100*last.Recall, "apichecker-R%")
		b.ReportMetric(last.PerApp.Minutes(), "apichecker-min/app")
	}
}

func BenchmarkTable2(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Table2(out())
		if err != nil {
			b.Fatal(err)
		}
		rf := res.Rows[len(res.Rows)-1]
		b.ReportMetric(100*rf.PrecisionKeys, "rf-keys-P%")
		b.ReportMetric(100*rf.RecallKeys, "rf-keys-R%")
	}
}

func BenchmarkFig1(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig1(out())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Points {
			if p.Events == 5000 {
				b.ReportMetric(100*p.RAC, "rac5k%")
			}
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig2(out())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CDF.Summary.Mean, "mean-Minvocations")
	}
}

func BenchmarkFig3(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig3(out())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TrackNone.Summary.Mean, "none-min")
		b.ReportMetric(res.TrackAll.Summary.Mean, "all-min")
	}
}

func BenchmarkFig4(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig4(out())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.StrongPositive), "src>=0.2")
	}
}

func BenchmarkFig5(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig5(out())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.NonTrivial), "setC")
	}
}

func BenchmarkFig6(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig6(out())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LinearFit.R2, "linR2")
		b.ReportMetric(res.LogFit.R2, "logR2")
	}
}

func BenchmarkFig7(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig7(out())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.All.Recall, "all-R%")
	}
}

func BenchmarkFig8(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig8(out())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Union), "keys")
		b.ReportMetric(float64(res.TotalPairwiseOverlaps), "overlaps")
	}
}

func BenchmarkFig9(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig9(out())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TrackKeys.Summary.Mean, "keys-min")
	}
}

func BenchmarkFig10(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig10(out())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Mode == features.ModeAPI {
				b.ReportMetric(100*r.F1, "api-F1%")
			}
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig11(out())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Saving, "saving%")
		b.ReportMetric(res.Lightweight.Summary.Mean, "light-min")
	}
}

func BenchmarkFig12(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig12(out(), 6)
		if err != nil {
			b.Fatal(err)
		}
		pMin, _, rMin, _ := res.Report.MinMaxPrecisionRecall()
		b.ReportMetric(100*pMin, "minP%")
		b.ReportMetric(100*rMin, "minR%")
	}
}

func BenchmarkFig13(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig13(out())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.APIs), "apis-in-top20")
		b.ReportMetric(float64(res.Permissions), "perms-in-top20")
		b.ReportMetric(float64(res.Intents), "intents-in-top20")
	}
}

func BenchmarkFig14(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig14(out(), 6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Report.InitialKeyAPIs), "initial-keys")
	}
}

func BenchmarkFig15(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig15(out())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(100*last.F1, "full-F1%")
	}
}

func BenchmarkFig16(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		res, err := e.Fig16(out())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Track150.Summary.Mean, "subset-min")
		b.ReportMetric(res.TrackKeys.Summary.Mean, "keys-min")
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkEmulatorRun measures one 5K-event emulation with the key APIs
// hooked (the per-app production scan path).
func BenchmarkEmulatorRun(b *testing.B) {
	e := env(b)
	reg, err := hook.NewRegistry(e.U, e.Selection.Keys)
	if err != nil {
		b.Fatal(err)
	}
	emu := emulator.New(emulator.LightweightEmulator, reg)
	p := e.Corpus.Program(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emu.Run(p, monkey.ProductionConfig(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorpusVectorize measures the full-corpus feature-extraction
// pass that backs every ML experiment.
func BenchmarkCorpusVectorize(b *testing.B) {
	e := env(b)
	ex, err := features.NewExtractor(e.U, e.Selection.Keys, features.ModeAPI)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Corpus.Vectorize(ex, emulator.GoogleEmulator, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestTrain measures random-forest training on the deployed
// feature configuration.
func BenchmarkForestTrain(b *testing.B) {
	e := env(b)
	ex, err := features.NewExtractor(e.U, e.Selection.Keys, features.ModeAPI)
	if err != nil {
		b.Fatal(err)
	}
	d, err := e.Corpus.Vectorize(ex, emulator.GoogleEmulator, 5000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf := ml.NewRandomForest(ml.ForestConfig{Trees: 80, MaxDepth: 16, MinLeaf: 2, Seed: int64(i)})
		if err := rf.Train(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUsageCollection measures the §4.3 track-everything measurement
// pass over the corpus.
func BenchmarkUsageCollection(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Corpus.CollectUsage(5000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeyAPISelection measures the §4.4 selection strategy given
// collected usage statistics.
func BenchmarkKeyAPISelection(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := features.SelectKeyAPIs(e.U, e.Usage, features.DefaultSelectionConfig())
		if len(sel.Keys) == 0 {
			b.Fatal("no keys selected")
		}
	}
}

// BenchmarkAblationEncoding compares the deployed One-Hot encoding with
// the histogram (invocation-frequency) encoding the paper's §6 proposes as
// future work, on the same key-API tracking set.
func BenchmarkAblationEncoding(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		for _, enc := range []features.Encoding{features.EncodingOneHot, features.EncodingHistogram} {
			ex, err := features.NewExtractorWithEncoding(e.U, e.Selection.Keys, features.ModeAPI, enc)
			if err != nil {
				b.Fatal(err)
			}
			d, err := e.Corpus.Vectorize(ex, emulator.GoogleEmulator, 5000)
			if err != nil {
				b.Fatal(err)
			}
			res, err := ml.CrossValidate(func() ml.Classifier {
				return ml.NewRandomForest(ml.DefaultForestConfig(7))
			}, d, 5, 5)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.Confusion.F1(), enc.String()+"-F1%")
		}
	}
}

// BenchmarkAblationForestVsDNN isolates the paper's §1 design call: the
// forest matches the deep model's accuracy at a fraction of the training
// cost.
func BenchmarkAblationForestVsDNN(b *testing.B) {
	e := env(b)
	ex, err := features.NewExtractor(e.U, e.Selection.Keys, features.ModeAPI)
	if err != nil {
		b.Fatal(err)
	}
	d, err := e.Corpus.Vectorize(ex, emulator.GoogleEmulator, 5000)
	if err != nil {
		b.Fatal(err)
	}
	train, test := d.Split(0.7, 5)
	b.ResetTimer()
	labels := map[ml.ModelKind]string{ml.ModelRandomForest: "rf", ml.ModelDNN: "dnn"}
	for i := 0; i < b.N; i++ {
		for _, kind := range []ml.ModelKind{ml.ModelRandomForest, ml.ModelDNN} {
			c := ml.NewClassifier(kind, 7)
			m, trainTime, _, err := ml.TrainEval(c, train, test)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*m.F1(), labels[kind]+"-F1%")
			b.ReportMetric(trainTime.Seconds(), labels[kind]+"-train-s")
		}
	}
}

// BenchmarkTrainFromCorpus measures the end-to-end training pipeline with
// the run cache: one emulation pass serves both usage measurement and
// vectorization. The cache is invalidated each iteration so every run pays
// the full pass. Compare against BenchmarkTrainFromCorpusTwoPass.
func BenchmarkTrainFromCorpus(b *testing.B) {
	e := env(b)
	sub := dataset.FromApps(e.U, 11, e.Corpus.Apps[:min(600, e.Corpus.Len())])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub.InvalidateRuns()
		_, rep, err := core.TrainFromCorpus(sub, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.EmulationRuns), "emu-runs")
	}
}

// BenchmarkTrainFromCorpusTwoPass is the pre-optimization training
// pipeline, reproduced faithfully: the measurement pass, a *serial*
// per-API Spearman sweep (SelectKeyAPIs now fans it out), a second corpus
// emulation under the selected keys on the deployment profile, and forest
// training. Compare with BenchmarkTrainFromCorpus for the PR's headline
// speedup.
func BenchmarkTrainFromCorpusTwoPass(b *testing.B) {
	e := env(b)
	sub := dataset.FromApps(e.U, 11, e.Corpus.Apps[:min(600, e.Corpus.Len())])
	sub.SetRunCaching(false)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runs0 := emulator.RunCount()
		usage, _, err := sub.CollectUsage(cfg.Events)
		if err != nil {
			b.Fatal(err)
		}
		sel := serialSelectKeyAPIs(e, usage, cfg.Selection)
		ex, err := features.NewExtractor(e.U, sel.Keys, cfg.Mode)
		if err != nil {
			b.Fatal(err)
		}
		d, err := sub.Vectorize(ex, cfg.Profile, cfg.Events)
		if err != nil {
			b.Fatal(err)
		}
		fc := cfg.Forest
		fc.Seed = cfg.Seed
		if err := ml.NewRandomForest(fc).Train(d); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(emulator.RunCount()-runs0), "emu-runs")
	}
}

// serialSelectKeyAPIs replicates the pre-PR selection strategy: the same
// four steps, with step 1's per-API correlation sweep done serially.
func serialSelectKeyAPIs(e *experiments.Env, usage *features.UsageStats, cfg features.SelectionConfig) *features.Selection {
	sel := &features.Selection{Config: cfg, SRC: make([]float64, e.U.NumAPIs())}
	for i := 0; i < e.U.NumAPIs(); i++ {
		id := framework.APIID(i)
		if e.U.API(id).Hidden {
			continue
		}
		src := usage.SRC(id)
		sel.SRC[i] = src
		if usage.UsageFraction(id) < cfg.SeldomFraction {
			continue
		}
		if src >= cfg.SRCThreshold || src <= -cfg.SRCThreshold {
			sel.SetC = append(sel.SetC, id)
		}
	}
	sel.SetP = e.U.RestrictedAPIs()
	sel.SetS = e.U.SensitiveAPIs()
	seen := make(map[framework.APIID]bool)
	for _, set := range [][]framework.APIID{sel.SetC, sel.SetP, sel.SetS} {
		for _, id := range set {
			if !seen[id] {
				seen[id] = true
				sel.Keys = append(sel.Keys, id)
			}
		}
	}
	sort.Slice(sel.Keys, func(i, j int) bool { return sel.Keys[i] < sel.Keys[j] })
	return sel
}

// benchMonth prepares a trained market plus one month of submissions for
// the review benchmarks. The verdict cache is disabled: the benchmark loop
// re-reviews the same month b.N times, and with memoization on, every
// iteration after the first would be answered from the cache — these
// benchmarks measure the emulation path.
func benchMonth(b *testing.B, lanes int) (*market.Market, []dataset.App) {
	b.Helper()
	e := env(b)
	sub := dataset.FromApps(e.U, 13, e.Corpus.Apps[:min(600, e.Corpus.Len())])
	ccfg := core.DefaultConfig()
	ccfg.VerdictCache = -1
	ck, _, err := core.TrainFromCorpus(sub, ccfg)
	if err != nil {
		b.Fatal(err)
	}
	mcfg := market.DefaultConfig()
	mcfg.Lanes = lanes
	m := market.New(ck, mcfg)
	m.SeedFingerprints(sub)
	monthCfg := dataset.DefaultConfig()
	monthCfg.Seed = 7919
	monthCfg.NumApps = 200
	month, err := dataset.Generate(e.U, monthCfg)
	if err != nil {
		b.Fatal(err)
	}
	return m, month.Apps
}

// BenchmarkRunYearMonth measures one month of market review with the ML
// scans fanned out over the production lane count (the RunYear inner loop).
// Compare against BenchmarkRunYearMonthSerial.
func BenchmarkRunYearMonth(b *testing.B) {
	m, apps := benchMonth(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := market.MonthStats{Month: i + 1}
		if _, err := m.ReviewBatch(apps, &stats); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunYearMonthSerial is the pre-pool baseline: the same month
// reviewed one submission at a time.
func BenchmarkRunYearMonthSerial(b *testing.B) {
	m, apps := benchMonth(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := market.MonthStats{Month: i + 1}
		for _, app := range apps {
			if _, err := m.Review(app, &stats); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkModelExportImport measures the §5.4 model-distribution path:
// APKMODEL encode → decode → instantiate (universe rebuild included — the
// importer starts from the bytes alone).
func BenchmarkModelExportImport(b *testing.B) {
	e := env(b)
	sub := dataset.FromApps(e.U, 3, e.Corpus.Apps[:min(600, e.Corpus.Len())])
	ck, _, err := core.TrainFromCorpus(sub, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := ExportModel(ck, &buf); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(buf.Len())/1024, "model-KiB")
		if _, err := ImportModel(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAPKBuildParse measures the archive round trip.
func BenchmarkAPKBuildParse(b *testing.B) {
	e := env(b)
	p := e.Corpus.Program(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := BuildAPK(p, e.U)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ParseAPK(data); err != nil {
			b.Fatal(err)
		}
	}
}

// benchArchives is how many corpus archives BenchmarkAPKParse cycles over:
// one op is one archive, so a -benchtime that is a multiple of it (1600x)
// reads as the corpus mean, and CI's 1x reads archive 0 every time.
const benchArchives = 16

// BenchmarkAPKParse is the decode budget: a full parse of prebuilt
// archives, the vet path's view of them (one handle, manifest + behaviour
// program, the dex never inflated), then the same archives split by where
// the time goes — apk's zip directory + inflate (apk.Inflate), and each of
// the three decoders on its own entry. full minus the four parts is the
// content hash.
func BenchmarkAPKParse(b *testing.B) {
	e := env(b)
	archives := make([][]byte, benchArchives)
	var parts [3][][]byte
	for i := range archives {
		data, err := BuildAPK(e.Corpus.Program(i), e.U)
		if err != nil {
			b.Fatal(err)
		}
		archives[i] = data
		entries, err := apk.Inflate(data)
		if err != nil {
			b.Fatal(err)
		}
		for j := range parts {
			parts[j] = append(parts[j], entries[j])
		}
	}
	run := func(name string, inputs [][]byte, fn func([]byte) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(inputs[i%len(inputs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("full", archives, func(d []byte) error { _, err := ParseAPK(d); return err })
	run("vet", archives, func(d []byte) error {
		a, err := apk.Open(d)
		if err != nil {
			return err
		}
		if _, err := a.Manifest(); err != nil {
			return err
		}
		_, err = a.Program()
		return err
	})
	run("inflate", archives, func(d []byte) error { _, err := apk.Inflate(d); return err })
	run("manifest", parts[0], func(d []byte) error { _, err := manifest.Decode(d); return err })
	run("dex", parts[1], func(d []byte) error { _, err := dex.Decode(d); return err })
	run("behavior", parts[2], func(d []byte) error { _, err := behavior.Decode(d); return err })
}

// BenchmarkServiceThroughput measures batch vetting through the always-on
// service: bounded-queue admission, worker-pool lanes, and the
// deterministic ordered merge. Reports submissions vetted per wall-clock
// second. The verdict cache is disabled — the loop re-vets the same batch
// b.N times, and this benchmark measures the emulation path; see the
// Duplicates variants for the cache.
func BenchmarkServiceThroughput(b *testing.B) {
	e := env(b)
	ccfg := core.DefaultConfig()
	ccfg.VerdictCache = -1
	ck, _, err := core.TrainFromCorpus(e.Corpus, ccfg)
	if err != nil {
		b.Fatal(err)
	}
	n := e.Corpus.Len()
	if n > 200 {
		n = 200
	}
	subs := make([]core.Submission, n)
	for i := range subs {
		subs[i] = core.Submission{Program: e.Corpus.Program(i)}
	}
	svc := vetsvc.New(ck, vetsvc.Config{Workers: 8, QueueSize: 32})
	defer svc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.VetBatch(context.Background(), subs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*n)/elapsed, "submissions/s")
	}
}

// benchDuplicateService wires the duplicate-heavy serving workload: 200
// submissions drawn round-robin from 10 unique programs, vetted through an
// 8-lane service over a checker with the given verdict-cache capacity.
func benchDuplicateService(b *testing.B, verdictCache int) {
	b.Helper()
	e := env(b)
	ccfg := core.DefaultConfig()
	ccfg.VerdictCache = verdictCache
	ck, _, err := core.TrainFromCorpus(e.Corpus, ccfg)
	if err != nil {
		b.Fatal(err)
	}
	const uniques, total = 10, 200
	subs := make([]core.Submission, total)
	for i := range subs {
		subs[i] = core.Submission{Program: e.Corpus.Program(i % uniques)}
	}
	svc := vetsvc.New(ck, vetsvc.Config{Workers: 8, QueueSize: 32})
	defer svc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.VetBatch(context.Background(), subs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*total)/elapsed, "submissions/s")
	}
	m := svc.Metrics()
	b.ReportMetric(float64(m.CacheHits+m.CacheCoalesced), "cache-served")
	b.ReportMetric(float64(m.CacheMisses+m.CacheBypass), "emulated")
	// Live-heap gauge for the CI artifact: the cache's flat-entry bytes
	// (its measurable heap contribution) and the process heap at snapshot.
	b.ReportMetric(float64(m.CacheLiveBytes), "cache-live-bytes")
	b.ReportMetric(float64(m.HeapLiveBytes), "heap-live-bytes")
}

// BenchmarkServiceThroughputDuplicates is the serving path the verdict
// cache exists for: a duplicate-heavy batch (20x resubmission rate) where
// singleflight and digest memoization answer all but the first sighting of
// each archive. Compare with the NoCache variant for the dedupe speedup.
func BenchmarkServiceThroughputDuplicates(b *testing.B) {
	benchDuplicateService(b, 0) // default cache capacity
}

// BenchmarkServiceThroughputDuplicatesNoCache pays a full emulation for
// every duplicate — the pre-cache serving baseline on the same workload.
func BenchmarkServiceThroughputDuplicatesNoCache(b *testing.B) {
	benchDuplicateService(b, -1)
}

// BenchmarkQueueServing prices the queue/claim/execute decomposition with
// its durable intake journal on: the duplicate-heavy workload as raw
// archives, every admission journaled (CRC-framed append) and every ack
// settle-logged, lease heartbeats ticking during the vets. Compare with
// BenchmarkServiceThroughputDuplicates — the delta is the crash-safety
// premium on the serving path.
func BenchmarkQueueServing(b *testing.B) {
	e := env(b)
	ck, _, err := core.TrainFromCorpus(e.Corpus, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const uniques, total = 10, 200
	raws := make([][]byte, uniques)
	for i := range raws {
		raw, err := BuildAPK(e.Corpus.Program(i), e.U)
		if err != nil {
			b.Fatal(err)
		}
		raws[i] = raw
	}
	subs := make([]core.Submission, total)
	for i := range subs {
		subs[i] = core.Submission{Raw: raws[i%uniques]}
	}
	svc, err := vetsvc.Open(ck, vetsvc.Config{
		Workers:   8,
		QueueSize: 32,
		QueueDir:  b.TempDir(),
		LeaseTTL:  time.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.VetBatch(context.Background(), subs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*total)/elapsed, "submissions/s")
	}
	m := svc.Metrics()
	b.ReportMetric(float64(m.CacheHits+m.CacheCoalesced), "cache-served")
	b.ReportMetric(float64(m.QueueAcked), "queue-acked")
}

// BenchmarkServiceThroughputTiered serves a confident-heavy batch through
// a checker with the tiered triage pre-screen on (band [0.05, 0.95]):
// submissions the static permission model scores outside the band get a
// microsecond tier-1 verdict without emulation, in-band ones pay the full
// tier-2 pipeline. A flat twin prices the same batch all-emulated once
// before the timer, so the reported virtual-cost-reduction-x is the
// deterministic (virtual-clock) mean-cost saving of the tier split.
func BenchmarkServiceThroughputTiered(b *testing.B) {
	e := env(b)
	tcfg := core.DefaultConfig()
	tcfg.TriageLo, tcfg.TriageHi = 0.05, 0.95
	ck, _, err := core.TrainFromCorpus(e.Corpus, tcfg)
	if err != nil {
		b.Fatal(err)
	}
	n := e.Corpus.Len()
	if n > 200 {
		n = 200
	}
	subs := make([]core.Submission, n)
	for i := range subs {
		subs[i] = core.Submission{Program: e.Corpus.Program(i)}
	}

	// Price the batch all-emulated on a flat twin (same training, no band).
	flatCk, _, err := core.TrainFromCorpus(e.Corpus, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	flatSvc := vetsvc.New(flatCk, vetsvc.Config{Workers: 8, QueueSize: 32})
	if _, err := flatSvc.VetBatch(context.Background(), subs); err != nil {
		b.Fatal(err)
	}
	flatMean := flatSvc.Metrics().ScanMean
	flatSvc.Close()

	svc := vetsvc.New(ck, vetsvc.Config{Workers: 8, QueueSize: 32})
	defer svc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.VetBatch(context.Background(), subs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*n)/elapsed, "submissions/s")
	}
	m := svc.Metrics()
	b.ReportMetric(float64(m.Tier1), "tier1")
	b.ReportMetric(float64(m.Tier2), "tier2")
	b.ReportMetric(m.ScanMean, "virtual-mean-scan-s")
	if m.ScanMean > 0 {
		b.ReportMetric(flatMean/m.ScanMean, "virtual-cost-reduction-x")
	}
}

// BenchmarkPipelineStages vets a mixed batch through the staged pipeline
// and reports each stage's virtual-latency profile from the checker's
// observability spine: <stage>-p50-vs / <stage>-p95-vs (virtual seconds)
// plus <stage>-runs. This is the per-stage record behind the service-level
// scan quantiles.
func BenchmarkPipelineStages(b *testing.B) {
	e := env(b)
	ck, _, err := core.TrainFromCorpus(e.Corpus, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	const uniques, total = 20, 120
	subs := make([]core.Submission, total)
	for i := range subs {
		subs[i] = core.Submission{Program: e.Corpus.Program(i % uniques)}
	}
	svc := vetsvc.New(ck, vetsvc.Config{Workers: 8, QueueSize: 32})
	defer svc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.VetBatch(context.Background(), subs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*total)/elapsed, "submissions/s")
	}
	for _, st := range ck.StageStats() {
		b.ReportMetric(st.Dur.P50, st.Stage+"-p50-vs")
		b.ReportMetric(st.Dur.P95, st.Stage+"-p95-vs")
		b.ReportMetric(float64(st.Count), st.Stage+"-runs")
	}
}

// benchForestBlock trains a forest and synthesizes a 512-row inference
// block (clearly past the batch chunk size) for the inference benchmarks.
func benchForestBlock(b *testing.B) (*ml.RandomForest, []ml.Vector) {
	b.Helper()
	const rows, feats = 512, 160
	rng := newBenchRNG(17)
	d := ml.NewDataset(feats)
	for i := 0; i < rows; i++ {
		v := ml.NewVector(feats)
		for f := 0; f < feats; f++ {
			if rng.next()%100 < 12 {
				v.Set(f)
			}
		}
		d.Add(v, rng.next()%100 < 30)
	}
	rf := ml.NewRandomForest(ml.ForestConfig{Trees: 80, MaxDepth: 16, MinLeaf: 2, Seed: 5})
	if err := rf.Train(d); err != nil {
		b.Fatal(err)
	}
	xs := make([]ml.Vector, len(d.Examples))
	for i := range d.Examples {
		xs[i] = d.Examples[i].X
	}
	return rf, xs
}

// benchRNG is a tiny deterministic generator so the inference benchmarks
// need no corpus emulation to set up.
type benchRNG struct{ s uint64 }

func newBenchRNG(seed uint64) *benchRNG { return &benchRNG{s: seed} }

func (r *benchRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// BenchmarkPredictBatch measures tree-major batch inference over a
// 512-row block (the ReviewBatch/Evaluate serving shape). Compare with
// BenchmarkPredictPerRow.
func BenchmarkPredictBatch(b *testing.B) {
	rf, xs := benchForestBlock(b)
	out := make([]float64, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rf.ScoreBatch(xs, out)
	}
	b.ReportMetric(float64(len(xs)), "rows/op")
}

// BenchmarkPredictPerRow is the row-major baseline: one root-to-leaf walk
// per (row, tree) pair through the per-row Score path.
func BenchmarkPredictPerRow(b *testing.B) {
	rf, xs := benchForestBlock(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			rf.Score(x)
		}
	}
	b.ReportMetric(float64(len(xs)), "rows/op")
}

// BenchmarkLifecyclePromotion measures one full background-evolution
// round against a live serving checker: train a challenger on the
// refreshed corpus, shadow-score it against the champion on the held-out
// slice, persist it to the on-disk registry, and hot-swap it in. The
// promotion and generation counts land as custom metrics.
func BenchmarkLifecyclePromotion(b *testing.B) {
	e := env(b)
	ck, _, err := core.TrainFromCorpus(e.Corpus, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	reg, err := modelstore.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	m := lifecycle.NewManager(ck, reg, lifecycle.GateConfig{
		MaxF1Drop: 1, MaxAUCDrop: 1, MinHoldout: 10,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.Evolve(context.Background(), e.Corpus)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Promoted {
			b.Fatalf("round %d not promoted: %s", i, res.Shadow.Reason)
		}
	}
	b.StopTimer()
	st := m.State()
	b.ReportMetric(float64(st.Promotions), "promotions")
	b.ReportMetric(float64(ck.Generation().ID), "generation")
	b.ReportMetric(float64(st.LastShadow.Holdout), "holdout-apps")
}

// silence unused-import complaints if metrics change shape later
var _ = dataset.AllTrackableAPIs
