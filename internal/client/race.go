//go:build race

package client

// raceEnabled reports a build under the race detector, where SendUpdate
// poisons its ciphertext as the call's lease ends (see sendLease).
const raceEnabled = true
