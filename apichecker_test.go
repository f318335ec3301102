package apichecker

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// The facade integration test: everything a downstream user would do in
// their first hour, through the public API only.
func TestPublicAPIEndToEnd(t *testing.T) {
	u, err := NewUniverse(3000, 21)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := NewCorpus(u, 900, 21)
	if err != nil {
		t.Fatal(err)
	}
	checker, report, err := Train(corpus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if report.KeyAPIs == 0 || report.Features < report.KeyAPIs {
		t.Fatalf("report = %+v", report)
	}

	// Build and vet fresh apps through the archive path.
	gen := NewGenerator(u)
	benign := gen.Generate(Spec{
		PackageName: "com.pub.notes", Version: 1, Seed: 5001, Label: Benign,
	})
	evil := gen.Generate(Spec{
		PackageName: "com.pub.sms", Version: 1, Seed: 5002,
		Label: Malicious, Family: FamilySMSFraud,
	})
	for _, tc := range []struct {
		p    *Program
		want bool
	}{{benign, false}, {evil, true}} {
		data, err := BuildAPK(tc.p, u)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseAPK(data)
		if err != nil {
			t.Fatal(err)
		}
		if parsed.PackageName() != tc.p.PackageName {
			t.Errorf("parsed package = %s", parsed.PackageName())
		}
		v, err := checker.Vet(context.Background(), Submission{Raw: data})
		if err != nil {
			t.Fatal(err)
		}
		if v.Malicious != tc.want {
			t.Errorf("%s: malicious = %v, want %v (score %f)",
				tc.p.PackageName, v.Malicious, tc.want, v.Score)
		}
	}

	// Market wrapping and review.
	m := NewMarket(checker, DefaultMarketConfig())
	m.SeedFingerprints(corpus)
	var reviewed int
	for _, app := range corpus.Apps[:50] {
		if _, err := m.Review(app, nil); err != nil {
			t.Fatal(err)
		}
		reviewed++
	}
	if reviewed != 50 {
		t.Fatal("reviews lost")
	}

	// Model distribution.
	var blob bytes.Buffer
	if err := ExportModel(checker, &blob); err != nil {
		t.Fatal(err)
	}
	imported, err := ImportModel(&blob)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := checker.Vet(context.Background(), Submission{Program: evil})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := imported.Vet(context.Background(), Submission{Program: evil})
	if err != nil {
		t.Fatal(err)
	}
	if v1.Malicious != v2.Malicious {
		t.Error("imported model disagrees with original")
	}
}

func TestPublicYearSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("year simulation in -short mode")
	}
	u, err := NewUniverse(3000, 33)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultYearConfig()
	cfg.Months = 2
	cfg.InitialApps = 400
	cfg.MonthlyApps = 120
	cfg.RetrainCap = 700
	rep, err := RunYear(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Months) != 2 {
		t.Fatalf("months = %d", len(rep.Months))
	}
}

func TestPaperUniverseSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("50K-API universe in -short mode")
	}
	u, err := PaperUniverse(1)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumAPIs() != 50000 {
		t.Errorf("NumAPIs = %d", u.NumAPIs())
	}
}

// TestPublicVetService exercises the always-on service and the sentinel
// errors through the facade only.
func TestPublicVetService(t *testing.T) {
	u, err := NewUniverse(3000, 44)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := NewCorpus(u, 600, 44)
	if err != nil {
		t.Fatal(err)
	}
	checker, _, err := Train(corpus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	if _, err := ParseAPK([]byte("garbage")); !errors.Is(err, ErrBadAPK) {
		t.Errorf("ParseAPK(garbage) = %v, want ErrBadAPK", err)
	}
	if _, err := checker.Vet(context.Background(), Submission{}); !errors.Is(err, ErrBadSubmission) {
		t.Errorf("Vet(empty submission) = %v, want ErrBadSubmission", err)
	}
	if !errors.Is(ErrDeadlineExceeded, context.DeadlineExceeded) {
		t.Error("ErrDeadlineExceeded must wrap context.DeadlineExceeded")
	}

	svc := NewVetService(checker, VetServiceConfig{Workers: 4, QueueSize: 8})
	defer svc.Close()
	var tickets []*VetTicket
	for i := 0; i < 8; i++ {
		tk, err := svc.SubmitWait(context.Background(), Submission{Program: corpus.Program(i)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		v, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if v.Package != corpus.Program(i).PackageName {
			t.Errorf("verdict %d package = %q", i, v.Package)
		}
	}
	m := svc.Metrics()
	if m.Accepted != 8 || m.Completed != 8 {
		t.Errorf("metrics = %+v", m)
	}
	svc.Close()
	if _, err := svc.SubmitWait(context.Background(), Submission{Program: corpus.Program(0)}); !errors.Is(err, ErrServiceClosed) {
		t.Errorf("submit after close = %v, want ErrServiceClosed", err)
	}
}
