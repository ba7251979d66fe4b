// Package icet is the parallel image-compositing library of the stack,
// modeled on IceT: each staging server renders its local data into a
// color+depth framebuffer, and the compositor merges the partial images
// into one, using only the abstract communicator. Like the original
// (whose IceTCommunicator struct lists function pointers for the
// communication primitives), this package never names a concrete
// transport: the Colza paper's contribution of swapping MPI for MoNA
// required providing a MoNA-backed IceTCommunicator, which here is any
// comm.Communicator.
//
// Two compositing strategies are provided (ablation A3):
//
//   - TreeReduce: a binomial reduction of whole images; each round merges
//     pairs, log2(n) rounds, full-image traffic per round.
//   - BinarySwap: the classic scalable algorithm; each round peers swap
//     halves of their current image region, so every process ends with a
//     fully composited 1/n slice, gathered at the root.
//
// Depth compositing keeps the nearest fragment per pixel (surface
// rendering); Ordered compositing applies back-to-front "over" blending in
// rank order (volume rendering).
package icet

import (
	"encoding/binary"
	"fmt"
	"math"

	"colza/internal/bufpool"
	"colza/internal/comm"
	"colza/internal/render"
)

// Strategy selects the compositing algorithm.
type Strategy int

// Compositing strategies.
const (
	TreeReduce Strategy = iota
	BinarySwap
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case TreeReduce:
		return "tree"
	case BinarySwap:
		return "bswap"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps a config string to a strategy.
func ParseStrategy(s string) Strategy {
	if s == "bswap" || s == "binary-swap" {
		return BinarySwap
	}
	return TreeReduce
}

// Mode selects the per-pixel merge rule.
type Mode int

// Compositing modes.
const (
	// Depth keeps the fragment nearest to the camera (z-buffer merge).
	Depth Mode = iota
	// Ordered applies back-to-front alpha blending in descending rank
	// order (rank n-1 is farthest). Used for volume pipelines.
	Ordered
)

const tagBase = 7000

// Composite merges each rank's partial framebuffer; the fully composited
// image is returned on root (nil elsewhere). All ranks must pass
// same-sized images and the same strategy, mode, and root.
func Composite(img *render.Image, c comm.Communicator, strat Strategy, mode Mode, root int) (*render.Image, error) {
	if c.Size() == 1 {
		return img, nil
	}
	// Ordered blending needs a global front-to-back order between the rank
	// sets merged at every step. The fold phase of binary swap merges rank
	// r with r+p2, whose sets interleave with other folds when the group
	// size is not a power of two; tree reduce always folds contiguous rank
	// ranges, so it is the correct algorithm in that case.
	if strat == BinarySwap && mode == Ordered && c.Size()&(c.Size()-1) != 0 {
		strat = TreeReduce
	}
	switch strat {
	case BinarySwap:
		return binarySwap(img, c, mode, root)
	default:
		return treeReduce(img, c, mode, root)
	}
}

// treeReduce composites via a binomial reduction over encoded images. Each
// fold merges the incoming frame into the accumulator's encoded planes in
// place (mergeEncoded), so only the root decodes, once: every collectives
// reduce hands op a private copy, never a buffer a peer or the caller
// still reads.
func treeReduce(img *render.Image, c comm.Communicator, mode Mode, root int) (*render.Image, error) {
	op := func(acc, in []byte) []byte {
		// In a binomial reduce the incoming image comes from a higher
		// relative rank: for ordered mode it is behind the accumulator.
		mergeEncoded(acc, in, mode)
		return acc
	}
	// The contribution is a pooled frame: every reduce folds and sends a
	// copy of it (Composite never reduces over one rank), so it is recycled
	// as soon as Reduce returns.
	frame := img.AppendEncode(bufpool.Get(img.EncodedSize())[:0])
	out, err := c.Reduce(root, tagBase, frame, op)
	bufpool.Put(frame)
	if err != nil {
		return nil, fmt.Errorf("icet: tree composite: %w", err)
	}
	if c.Rank() != root {
		return nil, nil
	}
	return render.DecodeImage(out)
}

// mergeEncoded merges the encoded framebuffer src (render.Image.Encode)
// into the encoded framebuffer dst in place, pixel for pixel by
// mergeRange's rules. dst is left as it is unless both are well-formed
// frames (what render.DecodeImageInto accepts) of the same size.
func mergeEncoded(dst, src []byte, mode Mode) {
	n := encodedPixels(dst)
	if n == 0 || len(src) != len(dst) || [8]byte(src) != [8]byte(dst) {
		return
	}
	dc, sc := dst[8:8+4*n], src[8:8+4*n]
	dd, sd := dst[8+4*n:], src[8+4*n:]
	for i := 0; i < n; i++ {
		o := 4 * i
		s := math.Float32frombits(binary.LittleEndian.Uint32(sd[o:]))
		nearer := s < math.Float32frombits(binary.LittleEndian.Uint32(dd[o:]))
		if nearer {
			copy(dd[o:o+4], sd[o:o+4])
		}
		switch {
		case mode == Ordered:
			blendOver(dc[o:o+4], sc[o:o+4])
		case nearer:
			copy(dc[o:o+4], sc[o:o+4])
		}
	}
}

// encodedPixels returns the pixel count of a well-formed encoded
// framebuffer, 0 for anything else.
func encodedPixels(b []byte) int {
	if len(b) < 8 {
		return 0
	}
	w, h := int(binary.LittleEndian.Uint32(b)), int(binary.LittleEndian.Uint32(b[4:]))
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 || len(b) != 8+8*w*h {
		return 0
	}
	return w * h
}

// pixelRange is a contiguous pixel interval [lo, hi) of the flattened
// image owned by a rank during binary swap.
type pixelRange struct{ lo, hi int }

// binarySwap composites via the binary-swap algorithm with a fold-in
// phase for non-power-of-two group sizes, then gathers the slices at
// root.
func binarySwap(img *render.Image, c comm.Communicator, mode Mode, root int) (*render.Image, error) {
	size, rank := c.Size(), c.Rank()
	w, h := img.W, img.H
	// local is pooled working state; it never escapes (the root's result is
	// assembled into a fresh image below), so it is recycled on every exit.
	local := render.GetImage(w, h)
	defer render.PutImage(local)
	copy(local.RGBA, img.RGBA)
	copy(local.Depth, img.Depth)

	// Fold phase: reduce to the largest power of two p2. Ranks >= p2 send
	// their whole image to rank-p2 and then only participate in the final
	// gather.
	p2 := 1
	for p2*2 <= size {
		p2 *= 2
	}
	active := rank < p2
	if rank >= p2 {
		// Send frames are pooled: comm Send copies, so the frame can be
		// recycled as soon as it returns.
		frame := local.AppendEncode(bufpool.Get(local.EncodedSize())[:0])
		err := c.Send(rank-p2, tagBase+1, frame)
		bufpool.Put(frame)
		if err != nil {
			return nil, err
		}
	} else if rank+p2 < size {
		raw, err := c.Recv(rank+p2, tagBase+1)
		if err != nil {
			return nil, err
		}
		// The recv buffer is exclusively ours (senders copy): decode into a
		// pooled image and recycle both.
		other := render.GetImage(w, h)
		derr := render.DecodeImageInto(other, raw)
		bufpool.Put(raw)
		if derr != nil || other.W != w || other.H != h {
			render.PutImage(other)
			if derr == nil {
				derr = render.ErrImage
			}
			return nil, derr
		}
		mergeRanked(local, other, rank, rank+p2, mode, pixelRange{0, w * h})
		render.PutImage(other)
	}

	// Swap phase among the first p2 ranks: each round splits the owned
	// range in two; the lower half stays with the lower peer. Rounds go
	// low bit first so that, in ordered mode, the rank sets merged at each
	// round are contiguous ranges (a visibility-order requirement).
	rng := pixelRange{0, w * h}
	if active {
		for dist := 1; dist < p2; dist *= 2 {
			peer := rank ^ dist
			mid := (rng.lo + rng.hi) / 2
			lowerHalf := pixelRange{rng.lo, mid}
			upperHalf := pixelRange{mid, rng.hi}
			var keep, give pixelRange
			if rank < peer {
				keep, give = lowerHalf, upperHalf
			} else {
				keep, give = upperHalf, lowerHalf
			}
			tag := tagBase + 16 + log2(dist)
			if err := sendRegion(c, peer, tag, local, give); err != nil {
				return nil, err
			}
			raw, err := c.Recv(peer, tag)
			if err != nil {
				return nil, err
			}
			mergeRegionRanked(local, raw, rank, peer, mode, keep)
			bufpool.Put(raw)
			rng = keep
		}
	}

	// Gather phase: every active rank sends its slice to root.
	if rank == root {
		// out is returned to the caller, so it must be a fresh image — never
		// a pooled one that a later PutImage could recycle under the caller.
		out := render.NewImage(w, h)
		for r := 0; r < p2; r++ {
			rrng := finalRange(r, p2, w*h)
			var payload []byte
			if r == rank {
				payload = encodeRegion(local, rrng)
			} else {
				raw, err := c.Recv(r, tagBase+2)
				if err != nil {
					return nil, err
				}
				payload = raw
			}
			err := decodeRegionInto(out, payload, rrng)
			bufpool.Put(payload)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if active {
		rrng := finalRange(rank, p2, w*h)
		if err := sendRegion(c, root, tagBase+2, local, rrng); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// blendOver blends the RGBA pixel src behind dst into dst ("over", dst in
// front), each channel clamped to 255.
func blendOver(dst, src []byte) {
	da := float64(dst[3]) / 255
	for k := 0; k < 3; k++ {
		v := float64(dst[k]) + (1-da)*float64(src[k])
		if v > 255 {
			v = 255
		}
		dst[k] = uint8(v)
	}
	na := float64(dst[3]) + (1-da)*float64(src[3])
	if na > 255 {
		na = 255
	}
	dst[3] = uint8(na)
}

// mergeRanked merges other into local over the given range, respecting
// rank order for ordered mode (lower rank is in front).
func mergeRanked(local, other *render.Image, myRank, otherRank int, mode Mode, rng pixelRange) {
	if mode == Ordered && otherRank < myRank {
		// The other image is in front: blend other over local, via pooled
		// scratch (recycled before return, never aliased past it).
		tmp := render.GetImage(local.W, local.H)
		copy(tmp.RGBA, other.RGBA)
		copy(tmp.Depth, other.Depth)
		mergeRange(tmp, local, mode, rng)
		copy(local.RGBA, tmp.RGBA)
		copy(local.Depth, tmp.Depth)
		render.PutImage(tmp)
		return
	}
	mergeRange(local, other, mode, rng)
}

func mergeRange(dst, src *render.Image, mode Mode, rng pixelRange) {
	switch mode {
	case Ordered:
		for i := rng.lo; i < rng.hi; i++ {
			blendOver(dst.RGBA[4*i:4*i+4], src.RGBA[4*i:4*i+4])
			if src.Depth[i] < dst.Depth[i] {
				dst.Depth[i] = src.Depth[i]
			}
		}
	default:
		for i := rng.lo; i < rng.hi; i++ {
			if src.Depth[i] < dst.Depth[i] {
				dst.Depth[i] = src.Depth[i]
				o := 4 * i
				copy(dst.RGBA[o:o+4], src.RGBA[o:o+4])
			}
		}
	}
}

// mergeRegionRanked merges an encoded region payload into local.
func mergeRegionRanked(local *render.Image, raw []byte, myRank, otherRank int, mode Mode, rng pixelRange) {
	other := render.GetImage(local.W, local.H)
	defer render.PutImage(other)
	if decodeRegionInto(other, raw, rng) != nil {
		return
	}
	mergeRanked(local, other, myRank, otherRank, mode, rng)
}

// finalRange recomputes the slice rank r owns after the swap phase among
// p2 ranks by replaying its per-round half choices (low bit first); the
// slices are a bit-reversed permutation of the p2 equal intervals.
func finalRange(r, p2, total int) pixelRange {
	lo, hi := 0, total
	for dist := 1; dist < p2; dist *= 2 {
		mid := (lo + hi) / 2
		if r&dist == 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return pixelRange{lo, hi}
}

// sendRegion encodes a pixel range into a pooled frame, sends it, and
// recycles the frame (comm implementations copy on Send).
func sendRegion(c comm.Communicator, dst, tag int, im *render.Image, rng pixelRange) error {
	frame := encodeRegion(im, rng)
	err := c.Send(dst, tag, frame)
	bufpool.Put(frame)
	return err
}

// encodeRegion serializes a pixel range: RGBA then depth. The buffer comes
// from bufpool; callers done with it before losing the reference should
// bufpool.Put it.
func encodeRegion(im *render.Image, rng pixelRange) []byte {
	n := rng.hi - rng.lo
	buf := bufpool.Get(8 + 8*n)
	binary.LittleEndian.PutUint32(buf, uint32(rng.lo))
	binary.LittleEndian.PutUint32(buf[4:], uint32(n))
	copy(buf[8:], im.RGBA[4*rng.lo:4*rng.hi])
	off := 8 + 4*n
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(buf[off+4*i:], math.Float32bits(im.Depth[rng.lo+i]))
	}
	return buf
}

// decodeRegionInto writes an encoded region into im; the payload's range
// must match rng.
func decodeRegionInto(im *render.Image, raw []byte, rng pixelRange) error {
	if len(raw) < 8 {
		return render.ErrImage
	}
	lo := int(binary.LittleEndian.Uint32(raw))
	n := int(binary.LittleEndian.Uint32(raw[4:]))
	if lo != rng.lo || n != rng.hi-rng.lo || len(raw) != 8+8*n || rng.hi > im.W*im.H {
		return render.ErrImage
	}
	copy(im.RGBA[4*lo:4*(lo+n)], raw[8:8+4*n])
	off := 8 + 4*n
	for i := 0; i < n; i++ {
		im.Depth[lo+i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[off+4*i:]))
	}
	return nil
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
