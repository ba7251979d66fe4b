//go:build race

package mercury

// raceEnabled reports whether the race detector is compiled in: under it
// sync.Pool drops Puts at random, so pool-hit assertions do not hold.
const raceEnabled = true
