package health

// Reference scales that normalize each pressure signal into "units of
// obviously overloaded". They are deliberately coarse: the score ranks
// peers against each other, it is not an SLO.
const (
	scaleQueueDepth    = 1024 // DefaultLoopbackQueueDepth; a full ingress queue is ~1.0
	scaleLaneBacklog   = 32   // a delivery lane 32 deep is stalled, not busy
	scaleDecryptMicros = 5000 // session decrypt ~100us; 5ms means a key agreement is back on the hot path
)

// Score maps a Signals snapshot to a health score in (0, 1]: 1 is idle
// and it decreases monotonically in every pressure signal. The range is
// split into disjoint bands — non-shedding peers land in (0.1, 1],
// shedding peers in (0, 0.1] — so a shedding peer ranks below any
// non-shedding one no matter how their raw signals compare.
// Participant SDKs sort their failover list by this value.
func Score(sig Signals, shedding bool) float64 {
	load := float64(sig.QueueDepth)/scaleQueueDepth +
		float64(sig.LaneBacklog)/scaleLaneBacklog +
		sig.DecryptMicros/scaleDecryptMicros
	if load < 0 {
		load = 0
	}
	if shedding {
		return 0.1 / (1 + load)
	}
	return 0.1 + 0.9/(1+load)
}
