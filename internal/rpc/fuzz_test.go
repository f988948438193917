package rpc

import "testing"

// FuzzHeaderRoundTrip checks the frame header codec over arbitrary field
// values.
func FuzzHeaderRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint32(2), 3, 4, 5)
	f.Add(uint64(0), uint32(0), 0, 0, 0)
	f.Fuzz(func(t *testing.T, xid uint64, proc uint32, metaLen, bulkLen, readLen int) {
		// Lengths travel as uint32 on the wire.
		m, b, r := metaLen&0x7fffffff, bulkLen&0x7fffffff, readLen&0x7fffffff
		var hdr [headerBytes]byte
		putHeader(&hdr, xid, proc, m, b, r)
		gx, gp, gm, gb, gr := unmarshalHeader(hdr[:])
		if gx != xid || gp != proc || gm != m || gb != b || gr != r {
			t.Fatalf("round trip: %v %v %v %v %v", gx, gp, gm, gb, gr)
		}
	})
}
