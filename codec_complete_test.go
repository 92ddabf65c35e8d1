package p2prange

import (
	"testing"

	_ "p2prange/internal/peer"
	_ "p2prange/internal/replica"
	_ "p2prange/internal/ship"
	"p2prange/internal/transport"
)

// TestEveryWireTypeHasBinaryCodec is the completeness gate for the binary
// wire protocol: every message type a protocol package registers
// (chord RPCs, peer, replica, ship) must have a binary codec.
// The binary transport has no fallback encoding, so a missing codec
// would otherwise surface only as an encode error on a live ring.
func TestEveryWireTypeHasBinaryCodec(t *testing.T) {
	if missing := transport.MissingCodecs(); len(missing) > 0 {
		t.Errorf("registered wire types without a binary codec: %v", missing)
	}
}
