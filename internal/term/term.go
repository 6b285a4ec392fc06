// Package term implements the terms T of MultiLog's language L (§5):
// constants, variables, the distinguished null ⊥, and compound terms built
// from function symbols, together with substitutions and unification.
package term

import (
	"fmt"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Kind discriminates the term variants.
type Kind int

const (
	KindConst Kind = iota
	KindVar
	KindNull
	KindCompound
)

// Term is an immutable term of L. Construct terms with Const, Var, Null and
// Comp; the zero Term is the constant "".
type Term struct {
	kind    Kind
	functor string // constant value, variable name, or compound functor
	args    []Term
}

// Const returns a constant term.
func Const(v string) Term { return Term{kind: KindConst, functor: v} }

// Var returns a variable term. By convention (and by the parsers in this
// module) variable names start with an upper-case letter or '_'.
func Var(name string) Term { return Term{kind: KindVar, functor: name} }

// Null returns the distinguished null term ⊥.
func Null() Term { return Term{kind: KindNull} }

// Comp returns the compound term f(args...).
func Comp(functor string, args ...Term) Term {
	return Term{kind: KindCompound, functor: functor, args: args}
}

// Kind returns the term's variant.
func (t Term) Kind() Kind { return t.kind }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.kind == KindVar }

// IsNull reports whether the term is ⊥.
func (t Term) IsNull() bool { return t.kind == KindNull }

// IsGround reports whether the term contains no variables.
func (t Term) IsGround() bool {
	switch t.kind {
	case KindVar:
		return false
	case KindCompound:
		for _, a := range t.args {
			if !a.IsGround() {
				return false
			}
		}
	}
	return true
}

// Name returns the constant value, variable name or functor.
func (t Term) Name() string { return t.functor }

// Args returns the arguments of a compound term (nil otherwise). The slice
// must not be modified.
func (t Term) Args() []Term { return t.args }

// Equal reports structural equality.
func (t Term) Equal(u Term) bool {
	if t.kind != u.kind || t.functor != u.functor || len(t.args) != len(u.args) {
		return false
	}
	for i := range t.args {
		if !t.args[i].Equal(u.args[i]) {
			return false
		}
	}
	return true
}

// bareConst reports whether a constant's spelling survives a print/parse
// round trip unquoted: a lower-case identifier (other than the reserved
// "null" and "not") or a plain number. Anything else — empty, upper-case
// or symbol start, embedded punctuation — must be printed quoted.
func bareConst(s string) bool {
	if s == "" || s == "null" || s == "not" {
		return false
	}
	digits := true
	for i, r := range s {
		if i == 0 && !unicode.IsLower(r) && !unicode.IsDigit(r) {
			return false
		}
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' {
			return false
		}
		if !unicode.IsDigit(r) {
			digits = false
		}
	}
	if first, _ := utf8.DecodeRuneInString(s); unicode.IsDigit(first) {
		return digits // "42" lexes as a number; "9a" would split
	}
	return true
}

// QuoteIdent renders a predicate or function symbol so it relexes as one
// identifier token: bare when it is a lower-case identifier (other than the
// keyword "not"), quoted otherwise.
func QuoteIdent(s string) string {
	if s != "" && s != "not" {
		ok := true
		for i, r := range s {
			if (i == 0 && !unicode.IsLower(r)) ||
				(!unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_') {
				ok = false
				break
			}
		}
		if ok {
			return s
		}
	}
	return "'" + s + "'"
}

// String renders the term in MultiLog surface syntax; ⊥ prints as "null".
func (t Term) String() string {
	switch t.kind {
	case KindConst:
		if bareConst(t.functor) {
			return t.functor
		}
		return "'" + t.functor + "'"
	case KindVar:
		return t.functor
	case KindNull:
		return "null"
	}
	return string(t.Append(nil))
}

// Append appends the term's String rendering to dst and returns the
// extended slice.
func (t Term) Append(dst []byte) []byte {
	switch t.kind {
	case KindConst:
		if bareConst(t.functor) {
			return append(dst, t.functor...)
		}
		dst = append(dst, '\'')
		dst = append(dst, t.functor...)
		return append(dst, '\'')
	case KindVar:
		return append(dst, t.functor...)
	case KindNull:
		return append(dst, "null"...)
	case KindCompound:
		dst = append(dst, QuoteIdent(t.functor)...)
		dst = append(dst, '(')
		for i, a := range t.args {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = a.Append(dst)
		}
		return append(dst, ')')
	}
	return append(dst, '?')
}

// Key returns a canonical string usable as a map key. Distinct terms have
// distinct keys; unlike String, variables are prefixed to avoid colliding
// with constants of the same spelling.
func (t Term) Key() string {
	switch t.kind {
	case KindConst:
		return "c:" + t.functor
	case KindVar:
		return "v:" + t.functor
	case KindNull:
		return "n:"
	}
	return string(t.AppendKey(nil))
}

// AppendKey appends the term's Key to dst and returns the extended slice, so
// a key can be rendered into a caller's buffer and looked up as
// m[string(buf)] without allocating.
func (t Term) AppendKey(dst []byte) []byte {
	switch t.kind {
	case KindConst:
		return append(append(dst, "c:"...), t.functor...)
	case KindVar:
		return append(append(dst, "v:"...), t.functor...)
	case KindNull:
		return append(dst, "n:"...)
	case KindCompound:
		dst = append(append(dst, "f:"...), t.functor...)
		dst = append(dst, '(')
		for i, a := range t.args {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = a.AppendKey(dst)
		}
		return append(dst, ')')
	}
	return append(dst, '?')
}

// Vars appends the variables occurring in t to dst (with duplicates) and
// returns the extended slice.
func (t Term) Vars(dst []string) []string {
	switch t.kind {
	case KindVar:
		return append(dst, t.functor)
	case KindCompound:
		for _, a := range t.args {
			dst = a.Vars(dst)
		}
	}
	return dst
}

// Subst is a substitution: a finite mapping from variable names to terms.
// The zero value is the empty substitution.
type Subst map[string]Term

// Lookup resolves a variable through the substitution, following chains
// (X ↦ Y, Y ↦ a resolves X to a). Non-variables are returned unchanged, and
// so is a variable bound to itself: an answer restricted to a query variable
// the query left unbound holds X ↦ X.
func (s Subst) Lookup(t Term) Term {
	for t.IsVar() {
		u, ok := s[t.functor]
		if !ok || (u.kind == KindVar && u.functor == t.functor) {
			return t
		}
		t = u
	}
	return t
}

// Apply replaces every bound variable in t by its binding, recursively.
func (s Subst) Apply(t Term) Term {
	if len(s) == 0 {
		return t
	}
	t = s.Lookup(t)
	if t.kind != KindCompound {
		return t
	}
	args := make([]Term, len(t.args))
	for i, a := range t.args {
		args[i] = s.Apply(a)
	}
	return Term{kind: KindCompound, functor: t.functor, args: args}
}

// Bind adds the binding v ↦ t, returning false if it would bind a variable
// to a term containing it (occurs check).
func (s Subst) Bind(v string, t Term) bool {
	if occurs(v, t, s) {
		return false
	}
	s[v] = t
	return true
}

// Undo removes the bindings of the variables on trail, as UnifyTrail and
// UnifyAllTrail record them. A trail lists only variables that were unbound
// when it was written, so Undo restores s to what it was before — unless s
// bound one of them to itself, as a restricted answer may (see Lookup),
// which Undo leaves unbound.
func (s Subst) Undo(trail []string) {
	for _, v := range trail {
		delete(s, v)
	}
}

// Clone returns an independent copy of the substitution.
func (s Subst) Clone() Subst {
	c := make(Subst, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// String renders the substitution like the paper's binding sets, e.g.
// "{R/u, X/avenger}" with entries sorted by variable name.
func (s Subst) String() string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	vals := make([]Term, len(keys))
	for i, k := range keys {
		vals[i] = s.Apply(Var(k))
	}
	return string(AppendBindings(nil, keys, vals))
}

// AppendBindings appends the binding set vars[i] ↦ vals[i] to dst as
// Subst.String renders it, "{R/u, X/avenger}": vars sorted, each vals[i]
// already resolved. It returns the extended slice.
func AppendBindings(dst []byte, vars []string, vals []Term) []byte {
	dst = append(dst, '{')
	for i, v := range vars {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, v...)
		dst = append(dst, '/')
		dst = vals[i].Append(dst)
	}
	return append(dst, '}')
}

func occurs(v string, t Term, s Subst) bool {
	t = s.Lookup(t)
	switch t.kind {
	case KindVar:
		return t.functor == v
	case KindCompound:
		for _, a := range t.args {
			if occurs(v, a, s) {
				return true
			}
		}
	}
	return false
}

// Unify extends s so that a and b become equal under it. It reports whether
// unification succeeded; on failure s may be partially extended. A caller
// that backtracks binds with UnifyTrail instead and undoes what it bound.
func Unify(a, b Term, s Subst) bool {
	var buf [4]string
	_, ok := UnifyTrail(a, b, s, buf[:0])
	return ok
}

// UnifyAll unifies the parallel slices a and b under s, like Unify.
func UnifyAll(a, b []Term, s Subst) bool {
	var buf [8]string
	_, ok := UnifyAllTrail(a, b, s, buf[:0])
	return ok
}

// UnifyTrail is the unifier: it extends s in place so that a and b become
// equal under it, with the occurs check, and appends to trail every variable
// it binds, returning the extended trail and whether unification succeeded.
// On failure too the trail lists what was bound before it failed, so
// s.Undo(trail) restores s either way: a backtracking enumeration binds each
// candidate into one substitution and undoes it, instead of cloning s per
// candidate.
func UnifyTrail(a, b Term, s Subst, trail []string) ([]string, bool) {
	a, b = s.Lookup(a), s.Lookup(b)
	switch {
	case a.IsVar() && b.IsVar() && a.functor == b.functor:
		return trail, true
	case a.IsVar() || b.IsVar():
		if !a.IsVar() {
			a, b = b, a
		}
		if !s.Bind(a.functor, b) {
			return trail, false
		}
		return append(trail, a.functor), true
	case a.kind != b.kind:
		return trail, false
	case a.kind == KindNull:
		return trail, true
	case a.kind == KindConst:
		return trail, a.functor == b.functor
	}
	// Both compound. The recursion stays in UnifyTrail itself: a caller's
	// stack buffer for the trail then stays on its stack.
	if a.functor != b.functor || len(a.args) != len(b.args) {
		return trail, false
	}
	for i := range a.args {
		var ok bool
		if trail, ok = UnifyTrail(a.args[i], b.args[i], s, trail); !ok {
			return trail, false
		}
	}
	return trail, true
}

// UnifyAllTrail unifies the parallel slices a and b under s, like
// UnifyTrail.
func UnifyAllTrail(a, b []Term, s Subst, trail []string) ([]string, bool) {
	if len(a) != len(b) {
		return trail, false
	}
	for i := range a {
		var ok bool
		if trail, ok = UnifyTrail(a[i], b[i], s, trail); !ok {
			return trail, false
		}
	}
	return trail, true
}

// Renamer produces fresh variable names, used to rename clauses apart before
// resolution.
type Renamer struct {
	counter int
}

// Fresh renames every variable in t consistently using the provided memo.
func (r *Renamer) Fresh(t Term, memo map[string]string) Term {
	switch t.kind {
	case KindVar:
		nv, ok := memo[t.functor]
		if !ok {
			r.counter++
			nv = fmt.Sprintf("_%s%d", strings.TrimLeft(t.functor, "_"), r.counter)
			memo[t.functor] = nv
		}
		return Var(nv)
	case KindCompound:
		args := make([]Term, len(t.args))
		for i, a := range t.args {
			args[i] = r.Fresh(a, memo)
		}
		return Term{kind: KindCompound, functor: t.functor, args: args}
	default:
		return t
	}
}
