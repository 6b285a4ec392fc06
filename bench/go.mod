// The benchmark is a module of its own so that it builds from its own
// build file; it reaches the daemon's packages through the replace below,
// which is why it only runs inside a checkout of the repository.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
