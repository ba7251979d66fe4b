//go:build !race

package render

// raceEnabled reports whether the race detector is compiled in; the
// allocation counts only hold without its instrumentation.
const raceEnabled = false
