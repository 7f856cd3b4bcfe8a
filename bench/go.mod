// The benchmark is a module of its own so that it builds and is carried
// with nothing but this directory and BENCHMARK.json; it reaches the
// program under test through the replace below, and a checkout without
// the repository around it fails to build (by design: the benchmark
// measures that program, never a copy).
module veritas/bench

go 1.22

require veritas v0.0.0

replace veritas => ../
