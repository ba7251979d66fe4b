//go:build race

package vtk

// raceEnabled reports whether the race detector is compiled in; a test that
// races a writer against a decoder on purpose cannot run under it.
const raceEnabled = true
