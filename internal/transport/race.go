//go:build race

package transport

// raceEnabled reports a build under the race detector, where every
// handler poisons request bodies as their lease ends (see bodyPool) and
// a pooled connection writes head and body separately (see conn.write).
const raceEnabled = true
