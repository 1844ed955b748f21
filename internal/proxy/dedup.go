package proxy

import (
	"net/http"
	"sync"

	"mixnn/internal/transport"
)

// dedupWindow is the batch-dedup id FIFO's capacity. Its size is not
// what rejects an aged-out redelivery — the sender sequence watermark
// is — so it is not a knob.
const dedupWindow = 1024

// maxDedupSenders bounds the per-sender sequence watermark map (FIFO:
// the oldest sender ages out first).
const maxDedupSenders = 256

// dedupVerdict is Begin's decision for one batch id.
type dedupVerdict int

const (
	// dedupClaimed: the caller owns the application and must end it with
	// Done or Forget.
	dedupClaimed dedupVerdict = iota
	// dedupApplied: a previous application completed — ack the duplicate
	// without reprocessing.
	dedupApplied
	// dedupInFlight: another application of the same id is still running
	// — answer retryable, NOT success (a success ack would let the
	// sender consume its entry while the owning attempt can still fail).
	dedupInFlight
	// dedupStale: the id is gone from the window AND the sender's
	// sequence watermark proves this entry was superseded long ago — a
	// stale redelivery (delayed duplicate, operator re-injection) that
	// must be rejected (409), not silently re-absorbed into a new round.
	dedupStale
)

// batchDedup remembers recently-applied batch ids so a redelivered batch
// acks instead of double-counting, and tracks in-flight applications so
// an overlapping redelivery neither re-applies NOR falsely acks work
// that has not finished. The id window is a bounded FIFO; what closes
// the aged-out slip is the per-sender sequence watermark: a sender's
// outbox is strictly ordered (entry N+1 is never sent before N is
// acknowledged), so once the receiver has applied seq N from a sender,
//
//   - a redelivery of seq == N whose id aged out is the lost-ack case:
//     it was applied, ack it (dedupApplied);
//   - anything with seq < N can only be a stale duplicate: reject it
//     (dedupStale) instead of re-absorbing a round that already counted.
type batchDedup struct {
	mu    sync.Mutex
	cap   int             // id FIFO capacity; 0 = dedupWindow
	state map[string]bool // false = application in flight, true = applied
	order []string
	// hwm maps sender id → highest entry sequence acknowledged as
	// applied; hwmOrder bounds it FIFO.
	hwm      map[string]uint64
	hwmOrder []string
}

func (d *batchDedup) capLocked() int {
	if d.cap > 0 {
		return d.cap
	}
	return dedupWindow
}

// Begin atomically decides what to do with batch id from (sender, seq);
// hasSeq is false when the sender did not identify itself (legacy
// senders — the watermark check is skipped and aged-out ids are
// indistinguishable from new batches, the pre-watermark behaviour).
func (d *batchDedup) Begin(id, sender string, seq uint64, hasSeq bool) dedupVerdict {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == nil {
		d.state = make(map[string]bool)
	}
	if done, ok := d.state[id]; ok {
		if done {
			return dedupApplied
		}
		return dedupInFlight
	}
	if hasSeq {
		if h, ok := d.hwm[sender]; ok {
			if seq == h {
				// Lost-ack redelivery of the sender's last applied entry,
				// its id already aged out of the window.
				return dedupApplied
			}
			if seq < h {
				return dedupStale
			}
		}
	}
	d.state[id] = false
	d.order = append(d.order, id)
	if len(d.order) > d.capLocked() {
		delete(d.state, d.order[0])
		d.order = d.order[1:]
	}
	return dedupClaimed
}

// Done marks a claimed id as applied and advances the sender's sequence
// watermark.
func (d *batchDedup) Done(id, sender string, seq uint64, hasSeq bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.state[id]; ok {
		d.state[id] = true
	}
	if !hasSeq {
		return
	}
	if d.hwm == nil {
		d.hwm = make(map[string]uint64)
	}
	if h, ok := d.hwm[sender]; !ok {
		d.hwm[sender] = seq
		d.hwmOrder = append(d.hwmOrder, sender)
		if len(d.hwmOrder) > maxDedupSenders {
			delete(d.hwm, d.hwmOrder[0])
			d.hwmOrder = d.hwmOrder[1:]
		}
		return
	} else if seq > h {
		d.hwm[sender] = seq
	}
	// LRU, not FIFO: a long-lived durable sender must not be evicted by
	// a churn of one-shot senders just because it registered first — it
	// is exactly the sender whose watermark matters.
	for i, v := range d.hwmOrder {
		if v == sender {
			d.hwmOrder = append(append(d.hwmOrder[:i:i], d.hwmOrder[i+1:]...), sender)
			break
		}
	}
}

// Forget releases an id claimed by Begin whose application failed, so a
// redelivery gets a fresh attempt.
func (d *batchDedup) Forget(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.state, id)
	for i, v := range d.order {
		if v == id {
			d.order = append(d.order[:i], d.order[i+1:]...)
			return
		}
	}
}

// Claim is the one switch from Begin's verdict to what a /v1/batch
// handler does next, taken BEFORE the handler applies anything (a retry
// overlapping a slow first attempt must dedup, not re-apply). Neither
// duplicate nor err: proceed — the caller owns the application and ends
// it with Finish. duplicate: acknowledge without reprocessing. err: the
// answer — the retryable 409 while another attempt is in flight, or the
// permanent 409 whose stale marker makes the sender quarantine instead
// of retrying (see the verdicts above). A batch without an id proceeds
// unclaimed.
func (d *batchDedup) Claim(req transport.BatchRequest) (duplicate bool, err error) {
	if req.ID == "" {
		return false, nil
	}
	switch d.Begin(req.ID, req.Sender, req.Seq, req.HasSeq && req.Sender != "") {
	case dedupApplied:
		return true, nil
	case dedupInFlight:
		return false, transport.Errorf(http.StatusConflict, "batch application in flight")
	case dedupStale:
		return false, &transport.StatusError{
			Code: http.StatusConflict, Stale: true,
			Msg: "stale batch redelivery (sequence below the sender's applied watermark)",
		}
	}
	return false, nil
}

// Finish ends the application Claim let proceed: applied records the id
// (and advances the sender's watermark) so a redelivery acks; otherwise
// the id is released and a redelivery gets a fresh attempt.
func (d *batchDedup) Finish(req transport.BatchRequest, applied bool) {
	switch {
	case req.ID == "":
	case applied:
		d.Done(req.ID, req.Sender, req.Seq, req.HasSeq && req.Sender != "")
	default:
		d.Forget(req.ID)
	}
}
