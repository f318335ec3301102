// Package hook is the API-interception engine, our stand-in for the Xposed
// framework (§4.2): it intercepts a configured set of framework APIs before
// they run and records their names and parameters.
//
// Interception has a real cost: every intercepted invocation pays a fixed
// overhead, which is why the size and heat of the tracked set dominates
// per-app analysis time (Figs. 3, 6, 9, 16). The engine therefore accounts
// intercepted invocations separately from total invocations.
//
// Observe is the hottest call in the simulator — the §4.3 measurement pass
// intercepts every invocation of every app in the corpus — so the tracked
// set is a dense per-API byte table rather than a map lookup, and per-run
// records live in an append-only arena indexed by a dense table that Seal
// returns to a pool once the run is over, or that a log Reset for the next
// run keeps.
package hook

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"apichecker/internal/framework"
)

// trackedBit marks an intercepted API in Registry.state.
const trackedBit = 1 << 0

// Registry is the set of APIs to intercept. It is immutable once
// NewRegistry returns, so any number of engines and concurrent emulations
// may share one.
type Registry struct {
	universe *framework.Universe
	list     []framework.APIID

	// state is indexed by APIID: trackedBit marks interception.
	state []uint8
}

// NewRegistry builds a registry tracking the given APIs. Hidden APIs cannot
// be hooked by name (they are not part of the public SDK surface) and are
// rejected.
func NewRegistry(u *framework.Universe, apis []framework.APIID) (*Registry, error) {
	r := &Registry{
		universe: u,
		state:    make([]uint8, u.NumAPIs()),
	}
	for _, id := range apis {
		if id < 0 || int(id) >= u.NumAPIs() {
			return nil, fmt.Errorf("hook: API id %d out of range", id)
		}
		if u.API(id).Hidden {
			return nil, fmt.Errorf("hook: cannot hook hidden API %s", u.API(id).Name)
		}
		if r.state[id]&trackedBit == 0 {
			r.state[id] |= trackedBit
			r.list = append(r.list, id)
		}
	}
	sort.Slice(r.list, func(i, j int) bool { return r.list[i] < r.list[j] })
	return r, nil
}

// MustNewRegistry panics on invalid input; for tests and fixed configs.
func MustNewRegistry(u *framework.Universe, apis []framework.APIID) *Registry {
	r, err := NewRegistry(u, apis)
	if err != nil {
		panic(err)
	}
	return r
}

// Tracks reports whether the registry intercepts the API.
func (r *Registry) Tracks(id framework.APIID) bool {
	return id >= 0 && int(id) < len(r.state) && r.state[id]&trackedBit != 0
}

// Size returns the number of tracked APIs.
func (r *Registry) Size() int { return len(r.list) }

// TrackedAPIs returns the sorted tracked set. Callers must not modify it.
func (r *Registry) TrackedAPIs() []framework.APIID { return r.list }

// ParamKind says which shape of parameter an interception sampled.
type ParamKind uint8

const (
	ParamArg   ParamKind = iota // "arg=" + the last 12 bytes of the API's name
	ParamFlags                  // "flags=0x" + Value in hex
	ParamUID                    // "uid=" + Value
	ParamCtx                    // "ctx=app"
)

// Param is one sampled parameter as the run records it: the kind and the
// number drawn for it, not the text. The vet path reads counts, never
// parameters, so the string is built by Log.Params for the readers that
// print it.
type Param struct {
	Kind  ParamKind
	Value int32
}

// maxParams caps the samples an Invocation retains (the first few
// observed): logs survive whole corpus passes in the run cache.
const maxParams = 4

// Invocation is the aggregated record of one API over one emulation run.
// It holds no pointers, so a log's arena is one allocation the garbage
// collector never scans.
type Invocation struct {
	Count uint64
	API   framework.APIID

	nparams uint8
	params  [maxParams]Param
}

// Log collects everything one emulation run observes.
type Log struct {
	registry *Registry

	// invs is the invocation arena in first-observation order; index maps
	// APIID to arena slot+1 while the run is live, lookup replaces it
	// after Seal.
	invs   []Invocation
	index  []int32
	lookup map[framework.APIID]int32
	table  *[]int32 // holds index, for the pool to take back

	// intents holds one record per intent action sent, in first-observation
	// order: pointer-free, so a sealed log in a corpus run cache costs the
	// garbage collector nothing to skip.
	intents []IntentSend

	// TotalInvocations counts every framework API invocation the app
	// performed, tracked or not (Fig. 2's statistic).
	TotalInvocations uint64

	// Intercepted counts invocations that paid hook overhead.
	Intercepted uint64

	// ReachedActivities lists activity class names seen starting.
	ReachedActivities []string
}

// IntentSend is one intent action a run sent, and how many times.
type IntentSend struct {
	ID    framework.IntentID
	Count uint64
}

// indexPool recycles the dense APIID→slot tables between runs. Sealed logs
// return their table zeroed, so a pooled table is always all-zero. It holds
// *[]int32, not []int32: a slice put in a pool is boxed, one allocation a run.
var indexPool sync.Pool

// NewLog creates an empty log for the registry.
func NewLog(r *Registry) *Log {
	l := new(Log)
	l.Reset(r)
	return l
}

// Reset empties the log for a new run under r and keeps its storage: the
// arena, the intent and activity slices, and the dense index, zeroed where
// the last run wrote it. The index is taken from the pool when the log has
// none (a new or sealed log) or when r's universe outgrew it
// (framework.Evolve appends APIs). A log that scratch storage reuses run
// after run is never sealed, so it keeps its index for good.
func (l *Log) Reset(r *Registry) {
	l.clearIndex()
	if n := r.universe.NumAPIs(); len(l.index) < n {
		table, _ := indexPool.Get().(*[]int32)
		if table == nil || len(*table) < n {
			idx := make([]int32, n)
			table = &idx
		}
		l.index, l.table = *table, table
	}
	invs := l.invs[:0]
	if cap(invs) == 0 {
		// Typical runs touch a few hundred distinct APIs; starting the
		// arena at 128 slots avoids most growth copies on the
		// full-tracking measurement pass.
		invs = make([]Invocation, 0, 128)
	}
	*l = Log{
		registry:          r,
		invs:              invs,
		index:             l.index,
		table:             l.table,
		intents:           l.intents[:0],
		ReachedActivities: l.ReachedActivities[:0],
	}
}

// Registry returns the registry the log was recorded under.
func (l *Log) Registry() *Registry { return l.registry }

// Seal releases the log's dense index back to the shared pool once the run
// is over and compacts its activity names. Logs are retained by result
// caches for whole corpus passes, so holding a universe-sized table per log
// would dwarf the data it indexes — and every individually allocated
// string the log keeps is re-marked by each GC cycle for as long as the
// pass stays cached. Observing a sealed log still works (via a small map);
// reading never needed the table.
func (l *Log) Seal() {
	if l.index == nil {
		return
	}
	l.clearIndex()
	indexPool.Put(l.table)
	l.index, l.table = nil, nil
	l.compactActivities()
}

// clearIndex zeroes the index slots this run's arena set, if the log has
// an index.
func (l *Log) clearIndex() {
	if l.index == nil {
		return
	}
	for i := range l.invs {
		l.index[l.invs[i].API] = 0
	}
}

// Clone returns a sealed copy of the log that shares no storage with it,
// for a caller that keeps a log recorded into scratch the next run reuses.
func (l *Log) Clone() *Log {
	c := &Log{
		registry:          l.registry,
		invs:              slices.Clone(l.invs),
		intents:           slices.Clone(l.intents),
		TotalInvocations:  l.TotalInvocations,
		Intercepted:       l.Intercepted,
		ReachedActivities: slices.Clone(l.ReachedActivities),
	}
	c.compactActivities()
	return c
}

// compactActivities rewrites the reached-activity names as slices of one
// shared backing string; the originals usually borrow from the app's
// program, which the log would otherwise keep alive string by string.
func (l *Log) compactActivities() {
	if len(l.ReachedActivities) == 0 {
		return
	}
	total := 0
	for _, a := range l.ReachedActivities {
		total += len(a)
	}
	var sb strings.Builder
	sb.Grow(total)
	for _, a := range l.ReachedActivities {
		sb.WriteString(a)
	}
	blob := sb.String()
	off := 0
	for i, a := range l.ReachedActivities {
		l.ReachedActivities[i] = blob[off : off+len(a)]
		off += len(a)
	}
}

// slot returns the arena slot for id, allocating one if needed.
func (l *Log) slot(id framework.APIID) int32 {
	if l.index != nil {
		s := l.index[id]
		if s == 0 {
			l.invs = append(l.invs, Invocation{API: id})
			s = int32(len(l.invs))
			l.index[id] = s
		}
		return s
	}
	if l.lookup == nil {
		l.lookup = make(map[framework.APIID]int32, len(l.invs))
		for i := range l.invs {
			l.lookup[l.invs[i].API] = int32(i + 1)
		}
	}
	s := l.lookup[id]
	if s == 0 {
		l.invs = append(l.invs, Invocation{API: id})
		s = int32(len(l.invs))
		l.lookup[id] = s
	}
	return s
}

// Observe records count invocations of the API. Only tracked APIs are
// intercepted and recorded; untracked ones still count toward
// TotalInvocations (they happen, the hook just does not see them).
func (l *Log) Observe(id framework.APIID, count uint64, params ...Param) {
	if count == 0 {
		return
	}
	l.TotalInvocations += count
	state := l.registry.state
	if id < 0 || int(id) >= len(state) || state[id]&trackedBit == 0 {
		return
	}
	l.Intercepted += count
	var inv *Invocation
	if idx := l.index; idx != nil {
		// Live-run fast path: one dense-table load, no call overhead.
		s := idx[id]
		if s == 0 {
			l.invs = append(l.invs, Invocation{API: id})
			s = int32(len(l.invs))
			idx[id] = s
		}
		inv = &l.invs[s-1]
	} else {
		inv = &l.invs[l.slot(id)-1]
	}
	inv.Count += count
	for _, p := range params {
		if inv.nparams < maxParams {
			inv.params[inv.nparams] = p
			inv.nparams++
		}
	}
}

// ObserveIntent records an intent send. Binder transactions are visible to
// the instrumentation layer without per-API hook overhead (§4.5: auxiliary
// features cost no extra dynamic-analysis time). The search is linear: a
// run sends a handful of distinct actions, and never more than the
// universe's intent vocabulary holds.
func (l *Log) ObserveIntent(id framework.IntentID, count uint64) {
	if count == 0 {
		return
	}
	for i := range l.intents {
		if l.intents[i].ID == id {
			l.intents[i].Count += count
			return
		}
	}
	l.intents = append(l.intents, IntentSend{ID: id, Count: count})
}

// ObserveActivity records that an activity came to the foreground.
func (l *Log) ObserveActivity(name string) {
	l.ReachedActivities = append(l.ReachedActivities, name)
}

// Invocations returns the invocation records in first-observation order.
// Callers must not modify or retain the slice; it is the log's own arena.
func (l *Log) Invocations() []Invocation { return l.invs }

// Params formats the parameters sampled for one of this log's invocation
// records, in observation order; nil when none were.
func (l *Log) Params(inv *Invocation) []string {
	if inv.nparams == 0 {
		return nil
	}
	out := make([]string, inv.nparams)
	for i, p := range inv.params[:inv.nparams] {
		switch p.Kind {
		case ParamArg:
			name := l.registry.universe.API(inv.API).Name
			out[i] = "arg=" + name[max(0, len(name)-12):]
		case ParamFlags:
			out[i] = "flags=0x" + strconv.FormatInt(int64(p.Value), 16)
		case ParamUID:
			out[i] = "uid=" + strconv.Itoa(int(p.Value))
		default:
			out[i] = "ctx=app"
		}
	}
	return out
}

// InvokedAPIs returns the tracked APIs observed at least once, in first-
// observation order.
func (l *Log) InvokedAPIs() []framework.APIID {
	out := make([]framework.APIID, len(l.invs))
	for i := range l.invs {
		out[i] = l.invs[i].API
	}
	return out
}

// Invocation returns the record for an API, or nil.
func (l *Log) Invocation(id framework.APIID) *Invocation {
	if id < 0 || int(id) >= len(l.registry.state) {
		return nil
	}
	var s int32
	if l.index != nil {
		s = l.index[id]
	} else if l.lookup != nil {
		s = l.lookup[id]
	} else {
		for i := range l.invs {
			if l.invs[i].API == id {
				return &l.invs[i]
			}
		}
		return nil
	}
	if s == 0 {
		return nil
	}
	return &l.invs[s-1]
}

// DistinctInvoked returns how many tracked APIs were observed.
func (l *Log) DistinctInvoked() int { return len(l.invs) }

// Intents returns the intent sends in first-observation order. Callers
// must not modify or retain the slice; it is the log's own storage.
func (l *Log) Intents() []IntentSend { return l.intents }

// SentIntents returns the distinct intent actions sent, sorted by id.
func (l *Log) SentIntents() []framework.IntentID {
	out := make([]framework.IntentID, len(l.intents))
	for i, s := range l.intents {
		out[i] = s.ID
	}
	slices.Sort(out)
	return out
}

// IntentCount returns how many times an intent action was sent.
func (l *Log) IntentCount(id framework.IntentID) uint64 {
	for _, s := range l.intents {
		if s.ID == id {
			return s.Count
		}
	}
	return 0
}
