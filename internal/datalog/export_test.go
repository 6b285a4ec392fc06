package datalog

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ruleLookups renders what rs answers, per predicate it indexes, through its
// lookups: the rules heading the predicate and its positive and negated body
// occurrences. With exact, an entry names its rule by id, in the order the
// lookup yields it, and each predicate carries its stratum. Without, it names
// the rule by its place among the live rules, the entries are sorted and a
// predicate with none is left out: rs up to rule ids and strata, comparable
// with a full build of its live rules.
func ruleLookups(rs *ruleSet, exact bool) map[string]string {
	name := map[int]string{}
	for id, place := 0, 0; id < rs.size(); id++ {
		if exact {
			name[id] = strconv.Itoa(id)
		} else if !rs.dead[id] {
			name[id] = strconv.Itoa(place)
			place++
		}
	}
	preds := map[string]bool{}
	for _, r := range []*ruleSet{rs, rs.base} {
		if r == nil {
			continue
		}
		for p := range r.stratumOf {
			preds[p] = true
		}
		for p := range r.headRules {
			preds[p] = true
		}
		for _, refs := range []map[string][]litRef{r.posRefs, r.negRefs} {
			for p := range refs {
				preds[p] = true
			}
		}
	}
	out := map[string]string{}
	for p := range preds {
		var heads, pos, neg []string
		_ = rs.eachHead(p, func(id int, _ Clause) error {
			heads = append(heads, name[id])
			return nil
		})
		for _, negated := range []bool{false, true} {
			_ = rs.eachRef(p, negated, func(rf litRef, _ Clause) error {
				ref := name[rf.clause] + "#" + strconv.Itoa(rf.lit)
				if negated {
					neg = append(neg, ref)
				} else {
					pos = append(pos, ref)
				}
				return nil
			})
		}
		if !exact {
			if len(heads)+len(pos)+len(neg) == 0 {
				continue
			}
			sort.Strings(heads)
			sort.Strings(pos)
			sort.Strings(neg)
		}
		s := fmt.Sprintf("heads %s; pos %s; neg %s", strings.Join(heads, " "), strings.Join(pos, " "), strings.Join(neg, " "))
		if exact {
			s = fmt.Sprintf("stratum %d; %s", rs.stratum(p), s)
		}
		out[p] = s
	}
	return out
}

// RuleLookups is ruleLookups over the engine's rule set, up to rule ids.
func (inc *Incremental) RuleLookups() map[string]string { return ruleLookups(inc.ruleSet, false) }

// RebuiltRuleLookups is ruleLookups, up to rule ids, over the rule set a full
// build of rules makes.
func RebuiltRuleLookups(rules []Clause) (map[string]string, error) {
	rs, err := newRuleSet(rules)
	if err != nil {
		return nil, err
	}
	return ruleLookups(rs, false), nil
}

// Stratum is the stratum the engine's rule set gives pred.
func (inc *Incremental) Stratum(pred string) int { return inc.stratum(pred) }

// RuleSetFlat reports whether the engine's rule set is a full build.
func (inc *Incremental) RuleSetFlat() bool { return inc.base == nil }

// RetractsAppended reports whether retracting c takes out a rule the engine's
// rule-set delta appended since its last fold: the first live rule equal to
// c is one of the delta's own.
func (inc *Incremental) RetractsAppended(c Clause) bool {
	own := false
	_ = inc.eachHead(c.Head.Pred, func(id int, r Clause) error {
		if !r.Equal(c) {
			return nil
		}
		own = inc.base != nil && id >= len(inc.base.rules)
		return errStopEnum
	})
	return own
}
