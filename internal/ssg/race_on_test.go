//go:build race

package ssg

// raceEnabled reports whether the race detector is compiled in; allocs/op
// ceilings only hold without its instrumentation.
const raceEnabled = true
