package passes

import (
	"testing"
	"unsafe"
)

// TestVNKeyFitsMapSlot: a Go map keeps keys of up to 128 bytes in its
// tables and allocates every larger key on its own, which would cost the
// CSE family one allocation per available expression.
func TestVNKeyFitsMapSlot(t *testing.T) {
	if n := unsafe.Sizeof(vnKey{}); n > 128 {
		t.Fatalf("vnKey is %d bytes, want at most 128", n)
	}
}
