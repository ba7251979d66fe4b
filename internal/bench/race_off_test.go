//go:build !race

package bench

// raceEnabled reports whether the race detector is compiled in; the
// allocs/op ceilings only hold without its instrumentation overhead, and
// the full-scale figures are too slow under it.
const raceEnabled = false
