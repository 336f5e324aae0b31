// The benchmark is a module of its own so that it builds from its own
// build file and stays out of the root module's ./... patterns. The
// module path keeps the riscvsim/ prefix, which is what lets it import
// the simulator's internal packages.
module riscvsim/bench

go 1.24

require riscvsim v0.0.0

replace riscvsim => ../
