package outbox

import "testing"

// PoisonSpares turns spare poisoning on until t ends, whatever the build
// (Ack poisons under the race detector only). For tests outside this
// package, whose queues are built by the tiers they drive.
func PoisonSpares(t testing.TB) {
	old := poisonSpares
	poisonSpares = true
	t.Cleanup(func() { poisonSpares = old })
}
