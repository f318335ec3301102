// Package inspector implements T-Market's pre-ML "expert-informed API
// inspection" (§2): security analysts curate rules over invocation
// patterns — combinations and orders of selected APIs, optionally
// conditioned on requested permissions — whose presence implies a threat.
//
// APICHECKER was built to replace this step because rule curation does not
// scale and rules lag novel malware; the inspector therefore doubles as
// the "T-Market 2014" comparison row in the regenerated Table 1. It is
// also still useful in production as an explainable second opinion: each
// finding names the rule and the evidence.
package inspector

import (
	"fmt"
	"sort"

	"apichecker/internal/framework"
	"apichecker/internal/hook"
	"apichecker/internal/manifest"
)

// Severity grades a finding.
type Severity uint8

const (
	// SeverityInfo findings are informational.
	SeverityInfo Severity = iota
	// SeveritySuspicious findings warrant review.
	SeveritySuspicious
	// SeverityMalicious findings reject the submission by themselves.
	SeverityMalicious
)

func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeveritySuspicious:
		return "suspicious"
	case SeverityMalicious:
		return "malicious"
	}
	return fmt.Sprintf("Severity(%d)", uint8(s))
}

// Rule is one expert-curated invocation pattern.
type Rule struct {
	Name        string
	Description string
	Severity    Severity

	// AllOf: every API must have been invoked.
	AllOf []framework.APIID
	// AnyOf: at least one must have been invoked (ignored when empty).
	AnyOf []framework.APIID
	// Ordered: the APIs must have been *first observed* in this order
	// (the paper's "orders" of invocations). Ignored when empty.
	Ordered []framework.APIID
	// Permissions that must be requested in the manifest.
	Permissions []framework.PermissionID
	// Intents that must be registered or sent.
	Intents []framework.IntentID
}

// Validate checks the rule is well-formed.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("inspector: rule with empty name")
	}
	if len(r.AllOf)+len(r.AnyOf)+len(r.Ordered)+len(r.Permissions)+len(r.Intents) == 0 {
		return fmt.Errorf("inspector: rule %s matches everything", r.Name)
	}
	return nil
}

// Finding is one matched rule with its evidence.
type Finding struct {
	Rule     string
	Severity Severity
	Evidence []string
}

// Inspector evaluates a rule set against dynamic-analysis output.
type Inspector struct {
	u     *framework.Universe
	rules []Rule
}

// New builds an inspector; all rules must validate.
func New(u *framework.Universe, rules []Rule) (*Inspector, error) {
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return nil, err
		}
	}
	return &Inspector{u: u, rules: rules}, nil
}

// Inspect evaluates every rule against one app's hook log and manifest.
func (ins *Inspector) Inspect(log *hook.Log, man *manifest.Manifest) []Finding {
	var out []Finding
	invoked := make(map[framework.APIID]bool)
	firstSeen := make(map[framework.APIID]int)
	for i, id := range log.InvokedAPIs() {
		invoked[id] = true
		firstSeen[id] = i
	}
	perms := make(map[framework.PermissionID]bool)
	if man != nil {
		for _, name := range man.PermissionNames() {
			if id, ok := ins.u.LookupPermission(name); ok {
				perms[id] = true
			}
		}
	}
	intents := make(map[framework.IntentID]bool)
	for _, id := range log.SentIntents() {
		intents[id] = true
	}
	if man != nil {
		for _, name := range man.ReceiverActions() {
			if id, ok := ins.u.LookupIntent(name); ok {
				intents[id] = true
			}
		}
	}

	for i := range ins.rules {
		if f, ok := ins.match(&ins.rules[i], invoked, firstSeen, perms, intents); ok {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity > out[j].Severity
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

func (ins *Inspector) match(r *Rule, invoked map[framework.APIID]bool,
	firstSeen map[framework.APIID]int,
	perms map[framework.PermissionID]bool,
	intents map[framework.IntentID]bool) (Finding, bool) {

	f := Finding{Rule: r.Name, Severity: r.Severity}
	for _, id := range r.AllOf {
		if !invoked[id] {
			return f, false
		}
		f.Evidence = append(f.Evidence, "api:"+ins.u.API(id).Name)
	}
	if len(r.AnyOf) > 0 {
		hit := false
		for _, id := range r.AnyOf {
			if invoked[id] {
				hit = true
				f.Evidence = append(f.Evidence, "api:"+ins.u.API(id).Name)
				break
			}
		}
		if !hit {
			return f, false
		}
	}
	if len(r.Ordered) > 0 {
		prev := -1
		for _, id := range r.Ordered {
			pos, ok := firstSeen[id]
			if !ok || pos < prev {
				return f, false
			}
			prev = pos
			f.Evidence = append(f.Evidence, "seq:"+ins.u.API(id).Name)
		}
	}
	for _, id := range r.Permissions {
		if !perms[id] {
			return f, false
		}
		f.Evidence = append(f.Evidence, "perm:"+ins.u.Permission(id).Name)
	}
	for _, id := range r.Intents {
		if !intents[id] {
			return f, false
		}
		f.Evidence = append(f.Evidence, "intent:"+ins.u.Intent(id).Name)
	}
	return f, true
}

// Verdict reduces findings to a review decision: any malicious finding
// rejects; suspicious findings flag for manual review.
func Verdict(findings []Finding) Severity {
	worst := SeverityInfo
	for _, f := range findings {
		if f.Severity > worst {
			worst = f.Severity
		}
	}
	return worst
}

// RequiredAPIs returns the distinct APIs across the rule set — the set an
// inspection deployment must hook.
func (ins *Inspector) RequiredAPIs() []framework.APIID {
	seen := make(map[framework.APIID]bool)
	var out []framework.APIID
	add := func(ids []framework.APIID) {
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	for i := range ins.rules {
		add(ins.rules[i].AllOf)
		add(ins.rules[i].AnyOf)
		add(ins.rules[i].Ordered)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
