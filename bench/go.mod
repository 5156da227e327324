// The benchmark is a module of its own so that it builds from its own
// build file; the module path keeps the warpsched/ prefix, which is what
// lets it import warpsched/internal/... across the module boundary.
module warpsched/bench

go 1.22

require warpsched v0.0.0

replace warpsched => ../
