//go:build unix

package transport

import "syscall"

// peek looks at the socket without reading from it or waiting: an idle
// connection is alive when nothing is there to read yet. Bytes or an
// end of stream mean the peer answered nothing we asked or went away.
func (c *conn) peek(fd uintptr) bool {
	n, _, err := syscall.Recvfrom(int(fd), c.scratch[:1], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	c.alive = n < 0 && err == syscall.EAGAIN
	return true
}
