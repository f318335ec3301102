package hook

import (
	"reflect"
	"testing"

	"apichecker/internal/framework"
)

var testU = framework.MustGenerate(framework.TestConfig(3000))

func someVisible(n int) []framework.APIID {
	var out []framework.APIID
	for _, a := range testU.APIs() {
		if !a.Hidden {
			out = append(out, a.ID)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

func TestNewRegistry(t *testing.T) {
	ids := someVisible(10)
	r, err := NewRegistry(testU, ids)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 10 {
		t.Errorf("Size = %d, want 10", r.Size())
	}
	for _, id := range ids {
		if !r.Tracks(id) {
			t.Errorf("Tracks(%d) = false", id)
		}
	}
	if r.Tracks(ids[len(ids)-1] + 1000) {
		t.Error("Tracks reports untracked API")
	}
	// Duplicates collapse.
	r2, err := NewRegistry(testU, append(ids, ids...))
	if err != nil {
		t.Fatal(err)
	}
	if r2.Size() != 10 {
		t.Errorf("duplicate ids not collapsed: %d", r2.Size())
	}
	// Tracked list is sorted.
	list := r.TrackedAPIs()
	for i := 1; i < len(list); i++ {
		if list[i] <= list[i-1] {
			t.Fatal("TrackedAPIs not sorted")
		}
	}
}

func TestNewRegistryRejectsHiddenAndBogus(t *testing.T) {
	hidden := testU.HiddenAPIs()
	if len(hidden) == 0 {
		t.Fatal("universe has no hidden APIs")
	}
	if _, err := NewRegistry(testU, hidden[:1]); err == nil {
		t.Error("registry accepted a hidden API")
	}
	if _, err := NewRegistry(testU, []framework.APIID{-5}); err == nil {
		t.Error("registry accepted a negative id")
	}
	if _, err := NewRegistry(testU, []framework.APIID{framework.APIID(testU.NumAPIs())}); err == nil {
		t.Error("registry accepted an out-of-range id")
	}
}

func TestLogObserve(t *testing.T) {
	ids := someVisible(5)
	r := MustNewRegistry(testU, ids[:3])
	l := NewLog(r)

	l.Observe(ids[0], 10, Param{Kind: ParamFlags, Value: 0xabc})
	l.Observe(ids[0], 5, Param{Kind: ParamUID, Value: 10042}, Param{Kind: ParamCtx})
	l.Observe(ids[1], 1)
	l.Observe(ids[4], 100) // untracked
	l.Observe(ids[2], 0)   // zero count: ignored

	if l.TotalInvocations != 116 {
		t.Errorf("TotalInvocations = %d, want 116", l.TotalInvocations)
	}
	if l.Intercepted != 16 {
		t.Errorf("Intercepted = %d, want 16", l.Intercepted)
	}
	if l.DistinctInvoked() != 2 {
		t.Errorf("DistinctInvoked = %d, want 2", l.DistinctInvoked())
	}
	inv := l.Invocation(ids[0])
	if inv == nil || inv.Count != 15 {
		t.Fatalf("Invocation(%d) = %+v", ids[0], inv)
	}
	if got, want := l.Params(inv), []string{"flags=0xabc", "uid=10042", "ctx=app"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Params = %q, want %q", got, want)
	}
	if got := l.Params(l.Invocation(ids[1])); got != nil {
		t.Errorf("Params of an unsampled invocation = %q, want nil", got)
	}
	if l.Invocation(ids[4]) != nil {
		t.Error("untracked API has an invocation record")
	}
	got := l.InvokedAPIs()
	if len(got) != 2 || got[0] != ids[0] || got[1] != ids[1] {
		t.Errorf("InvokedAPIs = %v", got)
	}
}

func TestParamSamplingCap(t *testing.T) {
	ids := someVisible(1)
	r := MustNewRegistry(testU, ids)
	l := NewLog(r)
	for i := 0; i < 50; i++ {
		l.Observe(ids[0], 1, Param{Kind: ParamUID, Value: int32(10000 + i)})
	}
	// The first four observed are the ones kept, and sealing keeps them.
	l.Seal()
	want := []string{"uid=10000", "uid=10001", "uid=10002", "uid=10003"}
	if got := l.Params(l.Invocation(ids[0])); !reflect.DeepEqual(got, want) {
		t.Errorf("Params = %q, want %q", got, want)
	}
}

// TestParamArgNamesTheAPI: an arg sample is formatted from the tail of the
// invoked API's own name, resolved when read.
func TestParamArgNamesTheAPI(t *testing.T) {
	ids := someVisible(1)
	l := NewLog(MustNewRegistry(testU, ids))
	l.Observe(ids[0], 1, Param{Kind: ParamArg})
	name := testU.API(ids[0]).Name
	want := "arg=" + name[max(0, len(name)-12):]
	if got := l.Params(l.Invocation(ids[0])); len(got) != 1 || got[0] != want {
		t.Errorf("Params = %q, want [%q]", got, want)
	}
}

// TestObserveAllocatesNothingWarm: recording an invocation with a sampled
// parameter writes into the arena slot — no string, no slice, no boxing —
// once the arena holds a record for the API.
func TestObserveAllocatesNothingWarm(t *testing.T) {
	ids := someVisible(8)
	l := NewLog(MustNewRegistry(testU, ids))
	for _, id := range ids {
		l.Observe(id, 1, Param{Kind: ParamCtx})
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		l.Observe(ids[i%len(ids)], 3, Param{Kind: ParamFlags, Value: int32(i)})
		i++
	})
	if allocs != 0 {
		t.Errorf("Observe with a sample allocates %.1f times per call on a warm arena, want 0", allocs)
	}
}

func TestObserveIntent(t *testing.T) {
	r := MustNewRegistry(testU, nil)
	l := NewLog(r)
	l.ObserveIntent(3, 2)
	l.ObserveIntent(1, 1)
	l.ObserveIntent(3, 1)
	l.ObserveIntent(9, 0) // ignored
	got := l.SentIntents()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("SentIntents = %v", got)
	}
	if l.IntentCount(3) != 3 {
		t.Errorf("IntentCount(3) = %d", l.IntentCount(3))
	}
	// Intent observation costs no hook overhead.
	if l.Intercepted != 0 || l.TotalInvocations != 0 {
		t.Error("intent observation affected API accounting")
	}
}

func TestObserveActivity(t *testing.T) {
	r := MustNewRegistry(testU, nil)
	l := NewLog(r)
	l.ObserveActivity("a.Main")
	l.ObserveActivity("a.Detail")
	if len(l.ReachedActivities) != 2 {
		t.Errorf("ReachedActivities = %v", l.ReachedActivities)
	}
}

// TestResetReadsAsNew: a reset log keeps its storage but nothing of the
// last run — no record, intent, activity or count, and no index slot that
// would find a stale record — and its index grows to a registry whose
// universe outgrew it.
func TestResetReadsAsNew(t *testing.T) {
	ids := someVisible(2)
	l := NewLog(MustNewRegistry(testU, ids[:1]))
	l.Observe(ids[0], 2, Param{Kind: ParamCtx})
	l.ObserveIntent(1, 1)
	l.ObserveActivity("a.Main")

	l.Reset(MustNewRegistry(testU, ids[1:]))
	if l.DistinctInvoked() != 0 || len(l.Intents()) != 0 || len(l.ReachedActivities) != 0 ||
		l.TotalInvocations != 0 || l.Intercepted != 0 {
		t.Fatalf("reset log still holds the last run: %d records, %v, %v, %d/%d",
			l.DistinctInvoked(), l.Intents(), l.ReachedActivities, l.TotalInvocations, l.Intercepted)
	}
	l.Observe(ids[1], 3)
	l.Observe(ids[0], 1) // no longer tracked
	if inv := l.Invocation(ids[1]); inv == nil || inv.Count != 3 {
		t.Errorf("Invocation(%d) = %+v, want a record of 3", ids[1], inv)
	}
	if inv := l.Invocation(ids[0]); inv != nil {
		t.Errorf("an untracked API finds a stale record after Reset: %+v", inv)
	}

	big := framework.MustGenerate(framework.TestConfig(2 * testU.NumAPIs()))
	var past framework.APIID = -1
	for _, a := range big.APIs()[testU.NumAPIs():] {
		if !a.Hidden {
			past = a.ID
			break
		}
	}
	if past < 0 {
		t.Fatal("the larger universe has no visible API past the smaller one's")
	}
	l.Reset(MustNewRegistry(big, []framework.APIID{past}))
	l.Observe(past, 4)
	if inv := l.Invocation(past); inv == nil || inv.Count != 4 || l.DistinctInvoked() != 1 {
		t.Errorf("after a reset into a larger universe: Invocation(%d) = %+v, %d records", past, inv, l.DistinctInvoked())
	}
}
