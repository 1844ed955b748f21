//go:build !unix

package transport

// peek has no non-blocking look at a socket on this platform: an idle
// connection is taken as alive, and a peer that went away shows as an
// error of the send that reuses it.
func (c *conn) peek(uintptr) bool {
	c.alive = true
	return true
}
