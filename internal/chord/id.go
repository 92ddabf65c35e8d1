package chord

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
)

// M is the number of bits in the identifier space. The paper uses 32-bit
// identifiers so they coincide with the LSH identifier space.
const M = 32

// ID is a point on the identifier circle [0, 2^M).
type ID = uint32

// HashAddr maps a peer's address (e.g. IP:port) to the ring via SHA-1,
// taking the first M bits of the digest, as the paper prescribes.
func HashAddr(addr string) ID {
	sum := sha1.Sum([]byte(addr))
	return binary.BigEndian.Uint32(sum[:4])
}

// Between reports whether x lies on the arc (a, b) exclusive, walking
// clockwise from a to b. When a == b the arc covers the whole circle
// except a itself.
func Between(a, b, x ID) bool {
	if a < b {
		return a < x && x < b
	}
	return x > a || x < b // wrapped arc, incl. the degenerate a == b case
}

// BetweenRightIncl reports whether x lies on (a, b], the successor
// ownership test: the node with ID b owns identifier x iff x ∈ (pred, b].
func BetweenRightIncl(a, b, x ID) bool {
	if x == b {
		return true
	}
	return Between(a, b, x)
}

// Add returns a + 2^k on the circle. It is the start of finger k.
func Add(a ID, k uint) ID { return a + 1<<k } // uint32 arithmetic wraps naturally

// Distance returns the clockwise distance from a to b.
func Distance(a, b ID) uint32 { return b - a } // wraps naturally

// FmtID formats an identifier as fixed-width hex for logs and tests.
func FmtID(id ID) string { return fmt.Sprintf("%08x", id) }
