package multilog

// ImpactEdges exposes an impact graph's reverse edges to the external tests.
func ImpactEdges(g *ImpactGraph) map[string][]string { return g.rev }
