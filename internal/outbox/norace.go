//go:build !race

package outbox

const raceEnabled = false
