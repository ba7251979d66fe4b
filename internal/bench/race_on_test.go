//go:build race

package bench

// raceEnabled reports whether the race detector is compiled in; the
// allocs/op ceilings only hold without its instrumentation overhead.
const raceEnabled = true
