// The benchmark is a module of its own so the repository's build file
// stays untouched; its import path sits under "repro/", which is what
// lets it import the repository's internal packages.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
