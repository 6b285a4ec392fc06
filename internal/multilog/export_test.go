package multilog

// ImpactEdges exposes an impact graph's reverse edges to the external tests.
func ImpactEdges(g *ImpactGraph) map[string][]string { return g.rev }

// VersionBase is a version's frozen base: a write folded the version flat
// exactly when its base is not its parent's.
func VersionBase(v *Version) *Database { return v.base.db }

// Rematerialize is the version as Database would first build it, ignoring
// the database it cached: what the version's own delta renders to now.
func Rematerialize(v *Version) *Database { return v.fork().Database() }

// RandomDatabase and T1Probes are the T1 corpus: TestTheorem61Randomized's
// seeded databases and the queries they are probed with.
var (
	RandomDatabase = randomDatabase
	T1Probes       = t1Probes
)
