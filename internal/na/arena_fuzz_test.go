package na

import (
	"math"
	"sync/atomic"
	"testing"
)

// FuzzShmFrameDecode hammers what a puller reads out of memory another
// process writes: the arena header, which sizes the mapping of a peer's
// arena, and the four words of an export-table slot, which say where in
// that mapping a region's bytes are. A header is either rejected or
// describes a geometry within the documented bounds; a pull against
// arbitrary slot words either declines or copies exactly the requested
// prefix of the region the words describe, all of it inside the data area —
// no panic, no read outside the mapping, whatever wraps.
func FuzzShmFrameDecode(f *testing.F) {
	const max = math.MaxUint64
	good := arenaHeader(8, 4096)
	f.Add(good, uint64(2), uint64(5), uint64(128), uint64(64), uint16(64))               // honest
	f.Add(good, uint64(2), uint64(5), uint64(max-7), uint64(16), uint16(16))             // off+len wraps
	f.Add(good, uint64(3), uint64(5), uint64(0), uint64(64), uint16(8))                  // in flux
	f.Add(good, uint64(2), uint64(13), uint64(0), uint64(64), uint16(8))                 // id shares the slot
	f.Add(good, uint64(2), uint64(5), uint64(4090), uint64(max), uint16(4))              // len is all ones
	f.Add(good[:40], uint64(0), uint64(0), uint64(0), uint64(0), uint16(0))              // truncated header
	f.Add(arenaHeader(1<<21, 64), uint64(0), uint64(1), uint64(0), uint64(8), uint16(8)) // too many slots
	lying := arenaHeader(8, 4096)
	lying[aoDataOff] ^= 0x40
	f.Add(lying, uint64(0), uint64(1), uint64(0), uint64(8), uint16(8))

	f.Fuzz(func(t *testing.T, hdr []byte, seq, id, ofs, ln uint64, n uint16) {
		nslots, dataOff, dataCap, err := decodeArenaHeader(hdr)
		if err != nil {
			return
		}
		if nslots == 0 || nslots > 1<<20 || dataOff != arenaHdrBytes+nslots*arenaSlotBytes || dataCap > 1<<40 {
			t.Fatalf("header accepted with nslots=%d dataOff=%d dataCap=%d", nslots, dataOff, dataCap)
		}
		if dataOff+dataCap > 1<<20 {
			return
		}
		// A stand-in for the mapping: the geometry the header claims, a data
		// area whose every byte says where it is, and the fuzzed words in
		// the slot a pull of id looks at.
		am := &smArenaMap{seg: make([]byte, dataOff+dataCap), nslots: nslots, dataOff: dataOff, dataCap: dataCap}
		for i := range am.seg {
			am.seg[i] = byte(i * 7)
		}
		slot := id % nslots
		for field, v := range [4]uint64{seq, id, ofs, ln} {
			atomic.StoreUint64(slotWord(am.seg, slot, field*8), v)
		}
		dst := make([]byte, n)
		if !am.pull(id, dst) {
			return
		}
		if seq&1 != 0 {
			t.Fatalf("pulled from a slot in flux (seq %d)", seq)
		}
		if ofs > dataCap || ln > dataCap-ofs || uint64(n) > ln {
			t.Fatalf("pulled %d bytes of a region at %d+%d in a data area of %d", n, ofs, ln, dataCap)
		}
		for i, v := range dst {
			if want := byte((dataOff + ofs + uint64(i)) * 7); v != want {
				t.Fatalf("byte %d = %#x, want %#x: not the region's bytes", i, v, want)
			}
		}
	})
}
