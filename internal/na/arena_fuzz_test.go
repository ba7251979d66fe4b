package na

import (
	"encoding/binary"
	"math"
	"net"
	"os"
	"slices"
	"sync/atomic"
	"syscall"
	"testing"
	"unsafe"
)

// FuzzShmFrameDecode hammers what a puller reads out of memory another
// process writes: the arena header, which sizes the mappings of a peer's
// arena, and the five words of an export-table slot, which say where in the
// data area a region's bytes are and how many borrowers pin it. A header is
// either rejected — any version but the current one is — or describes a
// geometry within the documented bounds; a borrow against arbitrary slot
// words either declines, leaving the reader word as it found it, or pins
// the slot and returns exactly the requested prefix of the region the words
// describe, all of it inside the data area — no panic, no view outside the
// mapping, whatever wraps. It also hammers the head of the message that
// hands an arena over a unix socket (decodeOffer): the header with the
// address length, and the control bytes that came with it, seeded from a
// live offer. A head is accepted only as an empty frame's from at most
// maxFromLen bytes of address, with one descriptor passed in one
// SCM_RIGHTS message.
func FuzzShmFrameDecode(f *testing.F) {
	const max = math.MaxUint64
	offer, oob := liveOffer(f)
	good := arenaHeader(8, 4096)
	f.Add(good, uint64(2), uint64(5), uint64(128), uint64(64), uint64(0), uint16(64), offer, oob)               // honest
	f.Add(good, uint64(2), uint64(5), uint64(max-7), uint64(16), uint64(0), uint16(16), offer, oob)             // off+len wraps
	f.Add(good, uint64(3), uint64(5), uint64(0), uint64(64), uint64(0), uint16(8), offer, oob)                  // in flux
	f.Add(good, uint64(2), uint64(13), uint64(0), uint64(64), uint64(0), uint16(8), offer, oob)                 // id shares the slot
	f.Add(good, uint64(2), uint64(5), uint64(4090), uint64(max), uint64(0), uint16(4), offer, oob)              // len is all ones
	f.Add(good[:40], uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint16(0), offer, oob)              // truncated header
	f.Add(arenaHeader(1<<21, 64), uint64(0), uint64(1), uint64(0), uint64(8), uint64(0), uint16(8), offer, oob) // too many slots
	lying := arenaHeader(8, 4096)
	lying[aoDataOff] ^= 0x40
	f.Add(lying, uint64(0), uint64(1), uint64(0), uint64(8), uint64(0), uint16(8), offer, oob)
	f.Add(good, uint64(2), uint64(5), uint64(128), uint64(64), uint64(3), uint16(64), offer, oob)   // pinned by others
	f.Add(good, uint64(2), uint64(13), uint64(128), uint64(64), uint64(max), uint16(8), offer, oob) // reader word wraps on a decline
	v1 := arenaHeader(8, 4096)
	binary.LittleEndian.PutUint32(v1[4:], 1)
	f.Add(v1, uint64(2), uint64(5), uint64(128), uint64(64), uint64(0), uint16(64), offer, oob) // version 1
	tooLong := rawFrame(maxFromLen+1, 0, nil, nil)
	for _, o := range [][2][]byte{
		{offer, nil},                               // no control message
		{offer, syscall.UnixRights(3, 4)},          // two descriptors
		{offer, append(slices.Clone(oob), oob...)}, // two rights messages
		{offer, controlMsg(0x7f, 12)},              // another type of message, no rights
		{offer, oob[:len(oob)-2]},                  // control bytes cut short
		{offer, controlMsg(syscall.SCM_RIGHTS, 5)}, // rights of 5 bytes: not whole descriptors
		{tooLong, oob},                             // address too long
		{rawFrame(4, 1, nil, nil), oob},            // not an empty frame
	} {
		f.Add(good, uint64(2), uint64(5), uint64(128), uint64(64), uint64(0), uint16(64), o[0], o[1])
	}

	f.Fuzz(func(t *testing.T, hdr []byte, seq, id, ofs, ln, readers uint64, n uint16, offerHead, offerOOB []byte) {
		var head [8]byte
		copy(head[:], offerHead)
		if fromLen, fds, err := decodeOffer(&head, offerOOB); err == nil {
			if len(fds) != 1 || fromLen > maxFromLen || fromLen != int(binary.LittleEndian.Uint32(head[:4])) || binary.LittleEndian.Uint32(head[4:]) != 0 {
				t.Fatalf("offer accepted with %d descriptors from a %d-byte address, header %x", len(fds), fromLen, head)
			}
		}
		nslots, dataOff, dataCap, err := decodeArenaHeader(hdr)
		if err != nil {
			return
		}
		if v := binary.LittleEndian.Uint32(hdr[4:]); v != smArenaVersion {
			t.Fatalf("header of version %d accepted", v)
		}
		if nslots == 0 || nslots > 1<<20 || dataOff != arenaDataOff(nslots) || dataCap == 0 || dataCap > 1<<40 {
			t.Fatalf("header accepted with nslots=%d dataOff=%d dataCap=%d", nslots, dataOff, dataCap)
		}
		if dataOff+dataCap > 1<<20 {
			return
		}
		// A stand-in for the mappings: the table the header claims, with the
		// fuzzed words in the slot a borrow of id looks at, and a data area
		// whose every byte says where it is.
		am := &smArenaMap{table: make([]byte, dataOff), data: make([]byte, dataCap), nslots: nslots}
		for i := range am.data {
			am.data[i] = byte(i * 7)
		}
		slot := id % nslots
		for field, v := range [5]uint64{seq, id, ofs, ln, readers} {
			atomic.StoreUint64(slotWord(am.table, slot, field*8), v)
		}
		readerWord := slotWord(am.table, slot, soReaders)
		view, pinned, ok := am.borrow(id, int(n))
		if !ok {
			if got := atomic.LoadUint64(readerWord); got != readers {
				t.Fatalf("declined borrow left the reader word at %d, found it at %d", got, readers)
			}
			return
		}
		if pinned != slot || atomic.LoadUint64(readerWord) != readers+1 {
			t.Fatalf("borrow pinned slot %d to %d readers, want slot %d to %d", pinned, atomic.LoadUint64(readerWord), slot, readers+1)
		}
		if seq&1 != 0 {
			t.Fatalf("borrowed from a slot in flux (seq %d)", seq)
		}
		if ofs > dataCap || ln > dataCap-ofs || uint64(n) > ln || len(view) != int(n) || cap(view) != int(n) {
			t.Fatalf("borrowed %d bytes (cap %d) of a region at %d+%d in a data area of %d", len(view), cap(view), ofs, ln, dataCap)
		}
		for i, v := range view {
			if want := byte((ofs + uint64(i)) * 7); v != want {
				t.Fatalf("byte %d = %#x, want %#x: not the region's bytes", i, v, want)
			}
		}
		am.unpin(pinned)
		if got := atomic.LoadUint64(readerWord); got != readers {
			t.Fatalf("unpin left the reader word at %d, want %d", got, readers)
		}
	})
}

// liveOffer has a dual endpoint offer its arena over a socket pair and
// returns the head of the message as read and the control bytes that came
// with it; the descriptor received is closed.
func liveOffer(f *testing.F) (head, oob []byte) {
	ep, err := ListenDual("127.0.0.1:0", "", "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	defer ep.Close()
	pair, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		f.Fatal(err)
	}
	var conns [2]*net.UnixConn
	for i, fd := range pair {
		file := os.NewFile(uintptr(fd), "pair")
		c, err := net.FileConn(file)
		file.Close()
		if err != nil {
			f.Fatal(err)
		}
		defer c.Close()
		conns[i] = c.(*net.UnixConn)
	}
	if err := sendOffer(conns[0], ep.Addr(), ep.file); err != nil {
		f.Fatal(err)
	}
	head, oob = make([]byte, 8), make([]byte, syscall.CmsgSpace(8))
	_, oobn, _, _, err := conns[1].ReadMsgUnix(head, oob)
	if err != nil {
		f.Fatal(err)
	}
	oob = oob[:oobn]
	_, fds, err := decodeOffer((*[8]byte)(head), oob)
	for _, fd := range fds {
		syscall.Close(fd)
	}
	if err != nil {
		f.Fatalf("live offer refused: %v", err)
	}
	return head, oob
}

// controlMsg builds a SOL_SOCKET control message of type typ with n data
// bytes; a kernel never sends SCM_RIGHTS unless n is a multiple of 4.
func controlMsg(typ int32, n int) []byte {
	b := make([]byte, syscall.CmsgSpace(n))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
	h.Level, h.Type = syscall.SOL_SOCKET, typ
	h.SetLen(syscall.CmsgLen(n))
	return b
}
