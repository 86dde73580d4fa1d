// The benchmark is its own module so it builds from its own directory
// and stays out of the root module's ./... ; its import path sits under
// uniqopt/, which is what lets it import uniqopt/internal/... packages.
module uniqopt/benchmark

go 1.22

require uniqopt v0.0.0

replace uniqopt => ../
