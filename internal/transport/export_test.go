package transport

import "net/http"

// NewPoisoningHandler is NewHandler with request bodies overwritten as
// their lease ends, whatever the build (NewHandler itself does so under
// the race detector only). For tests outside this package.
func NewPoisoningHandler(s Server) http.Handler {
	h := newHandler(s)
	h.single.poison, h.batch.poison = true, true
	return h
}

// LeasedBodies reports how many request-body buffers a handler made by
// NewHandler or NewPoisoningHandler has out on lease.
func LeasedBodies(h http.Handler) int64 {
	hh := h.(*handler)
	return hh.single.leased.Load() + hh.batch.leased.Load()
}
