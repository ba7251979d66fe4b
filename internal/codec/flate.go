package codec

import (
	"bytes"
	"compress/flate"
	"io"
	"slices"
	"sync"
)

// Flate wraps stdlib DEFLATE at BestSpeed. It is the general-purpose entry
// in the registry: slower than Shuffle on float grids but stronger on mixed
// or byte-oriented payloads. Writers and readers are pooled with their sink
// and source and Reset, so steady-state coding touches no allocator beyond
// the pools — and every path, failing ones included, hands them back.
type Flate struct {
	writers sync.Pool // *deflater
	readers sync.Pool // *inflater
}

func (*Flate) ID() uint8    { return FlateID }
func (*Flate) Name() string { return "flate" }

// MaxEncodedSize: DEFLATE stored-block overhead is 5 bytes per 65535-byte
// block, plus stream header/trailer slack.
func (*Flate) MaxEncodedSize(n int) int { return n + 5*(n/65535+1) + 16 }

// deflater is a pooled DEFLATE writer: what goes into zw comes out
// appended to buf.
type deflater struct {
	buf []byte
	zw  *flate.Writer
}

func (z *deflater) Write(p []byte) (int, error) {
	z.buf = append(z.buf, p...)
	return len(p), nil
}

// deflate opens a stream that appends to dst; endDeflate closes it.
func (f *Flate) deflate(dst []byte) *deflater {
	z, _ := f.writers.Get().(*deflater)
	if z == nil {
		z = &deflater{}
		z.zw, _ = flate.NewWriter(z, flate.BestSpeed)
	}
	z.buf = dst
	z.zw.Reset(z)
	return z
}

// endDeflate closes the stream, pools the writer and returns dst extended
// by the stream.
func (f *Flate) endDeflate(z *deflater) ([]byte, error) {
	err := z.zw.Close()
	buf := z.buf
	z.buf = nil
	f.writers.Put(z)
	return buf, err
}

func (f *Flate) Encode(dst, src []byte) ([]byte, error) {
	z := f.deflate(dst)
	_, _ = z.zw.Write(src) // a failed write sticks: Close reports it
	return f.endDeflate(z)
}

// inflater is a pooled DEFLATE reader over src. bytes.Reader is an
// io.ByteReader, so flate skips its internal bufio wrapper and reads not one
// byte past the stream.
type inflater struct {
	src bytes.Reader
	zr  io.ReadCloser // also a flate.Resetter
	one [1]byte
}

// inflate opens the stream in src; endInflate closes it.
func (f *Flate) inflate(src []byte) *inflater {
	z, _ := f.readers.Get().(*inflater)
	if z == nil {
		z = &inflater{}
		z.zr = flate.NewReader(&z.src)
	}
	z.src.Reset(src)
	z.zr.(flate.Resetter).Reset(&z.src, nil)
	return z
}

// fill inflates exactly len(p) bytes into p.
func (z *inflater) fill(p []byte) bool {
	_, err := io.ReadFull(z.zr, p)
	return err == nil
}

// endInflate pools the reader and reports ErrCorrupt unless every fill
// succeeded (ok) and the stream then ends cleanly at the last byte of src:
// extra or missing data is corruption, not silence.
func (f *Flate) endInflate(z *inflater, ok bool) error {
	if ok {
		n, err := z.zr.Read(z.one[:])
		ok = n == 0 && err == io.EOF && z.src.Len() == 0
	}
	z.src.Reset(nil)
	f.readers.Put(z)
	if !ok {
		return ErrCorrupt
	}
	return nil
}

func (f *Flate) Decode(dst, src []byte, srcLen int) ([]byte, error) {
	base := len(dst)
	dst = grow(dst, srcLen)
	z := f.inflate(src)
	if err := f.endInflate(z, z.fill(dst[base:])); err != nil {
		return nil, err
	}
	return dst, nil
}

// grow extends dst by n bytes of unspecified content.
func grow(dst []byte, n int) []byte {
	return slices.Grow(dst, n)[:len(dst)+n]
}
