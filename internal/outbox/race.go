//go:build race

package outbox

// raceEnabled reports a build under the race detector, where an acked
// payload is poisoned as it becomes a spare (see Queue.Ack).
const raceEnabled = true
