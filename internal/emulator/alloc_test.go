package emulator

import (
	"slices"
	"testing"

	"apichecker/internal/behavior"
	"apichecker/internal/hook"
)

// raceDetector is set by race_test.go in a -race build.
var raceDetector bool

// TestRunAllocBudget: warm Runs of the deployed engine, with the
// permission- and category-keyed APIs hooked (the selection's Set-P and
// Set-S), over sixteen fixed apps of every label. Run gives the caller a
// result of its own, so what it allocates is that result: the scratch it
// is cut from, the hook log's tables and the activities and intents it
// records, and the two random streams. A run's count depends on its app
// and its Monkey seed, so the budget is the measured total over the
// sixteen, 206: one allocation more on any of them fails it.
func TestRunAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector drops what is put in a sync.Pool at random, so the hook log's index table is rebuilt")
	}
	const budget = 206
	keys := slices.Concat(testU.RestrictedAPIs(), testU.SensitiveAPIs())
	slices.Sort(keys)
	e := New(LightweightEmulator, hook.MustNewRegistry(testU, slices.Compact(keys)))
	progs := make([]*behavior.Program, 16)
	for i := range progs {
		switch i % 4 {
		case 0, 1:
			progs[i] = prog(int64(100+i), behavior.Benign, behavior.FamilyNone)
		default:
			progs[i] = prog(int64(100+i), behavior.Malicious, behavior.Family(1+i%behavior.NumFamilies))
		}
	}
	runAll := func() {
		for i, p := range progs {
			if _, err := e.Run(p, mk(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(10, runAll); n > budget {
		t.Errorf("%d warm Runs allocate %.0f times, budget %d", len(progs), n, budget)
	} else {
		t.Logf("%d warm Runs allocate %.0f times, %.2f a run", len(progs), n, n/float64(len(progs)))
	}
}
