// The benchmark is a module of its own so that it builds from its own
// directory; the module path sits under the repository's so that it may
// import the repository's internal packages.
module github.com/errscope/grid/bench

go 1.22

require github.com/errscope/grid v0.0.0

replace github.com/errscope/grid => ../
