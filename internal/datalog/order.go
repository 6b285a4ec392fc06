package datalog

// OrderBody stably moves '!=' and negated literals after the positive
// ones. The bottom-up evaluator picks body literals dynamically ("first
// ready"), but SLD, tabling, and the magic-sets rewrite consume bodies in
// source order, so a range-restricted clause like
//
//	a() :- a(0), not b(Y), a(Y).
//
// flounders on `not b(Y)` before a(Y) binds Y. Range restriction
// guarantees every variable of a deferred literal occurs in some positive
// literal, so after this reordering those variables are ground when the
// deferred literal is reached. '=' binds and never flounders; it stays in
// place among the positives.
//
// Exported because it *is* the sideways-information-passing order: the
// magic-sets rewrite, SLD, tabling and the compiled engine all walk
// bodies in this order, and they must agree.
func OrderBody(body []Literal) []Literal {
	var pos, deferred []Literal
	for _, l := range body {
		if l.Negated || l.Atom.Pred == BuiltinNeq {
			deferred = append(deferred, l)
		} else {
			pos = append(pos, l)
		}
	}
	if len(deferred) == 0 {
		return body
	}
	return append(pos, deferred...)
}
