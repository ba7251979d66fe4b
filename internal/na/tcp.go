package na

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"colza/internal/bufpool"
	"colza/internal/obs"
)

// maxFrame bounds a single TCP message frame (64 MiB), protecting the
// receiver from corrupt length prefixes.
const maxFrame = 64 << 20

// maxFromLen bounds the sender address a frame may carry.
const maxFromLen = 4096

// readBufSize is the per-connection read buffer: a frame's header, its
// sender and a small body cost one read(2) together, and a large body still
// lands in its pooled buffer with at most one buffer's worth copied.
const readBufSize = 4 << 10

// defaultTCPWriteTimeout bounds how long one frame write may block on a
// peer that stopped reading. On expiry the connection is dropped and the
// frame counts as a lost datagram — one stalled peer must never wedge
// every sender to that address (the per-conn write lock is held across the
// write, so without a deadline a single full socket buffer would).
const defaultTCPWriteTimeout = 10 * time.Second

// ListenTCP creates an endpoint bound to hostport (e.g. "127.0.0.1:0");
// its address is "tcp://" + the actual listen address. Frames carry the
// sender's address so replies can be routed without handshakes.
func ListenTCP(hostport string) (Endpoint, error) {
	return listenTCP(hostport)
}

func listenTCP(hostport string) (*tcpEP, error) {
	l, err := net.Listen("tcp", hostport)
	if err != nil {
		return nil, fmt.Errorf("na: listen: %w", err)
	}
	ep := &tcpEP{
		addr:         schemeTCP + l.Addr().String(),
		l:            l,
		q:            newPktQueue(),
		conns:        make(map[string]*tcpConn),
		routes:       make(map[string]peerRoute),
		accepted:     make(map[net.Conn]struct{}),
		writeTimeout: defaultTCPWriteTimeout,
	}
	ep.loops.Add(1)
	go ep.acceptLoop(l)
	return ep, nil
}

// tcpEP is the stream-socket endpoint: length-prefixed frames over one
// cached connection per peer. A plain endpoint (ListenTCP) has a TCP
// listener only; a dual endpoint (ListenDual) adds a unix-socket listener
// that colocated peers dial instead — same framing, same loops, after one
// first message that hands over the dialer's arena.
type tcpEP struct {
	// addr is the endpoint's address, stamped as the sender on outgoing
	// frames: "tcp://host:port", or the composite form for a dual endpoint,
	// so the responder can choose its own link back.
	addr         string
	l            net.Listener
	q            *pktQueue
	writeTimeout time.Duration

	// The unix listener of a dual endpoint (nil on a plain one) and its
	// arenas (the one it offers, those it was offered), this host's
	// identity in composite addresses, and the dial-time counters of which
	// socket a composite peer was reached over.
	ul    net.Listener
	bulk  *shmBulk
	host  string
	route atomic.Pointer[routeMetrics]

	mu       sync.Mutex
	conns    map[string]*tcpConn   // outbound dials, keyed by the peer's tcp address
	routes   map[string]peerRoute  // destination addresses, split (routeOf)
	accepted map[net.Conn]struct{} // inbound conns owned by readLoops
	closed   bool

	// loops counts the accept and read loops running, each from where it is
	// started; Close waits them out, so what a read loop holds (a colocated
	// peer's arena mapping) is released when Close returns.
	loops sync.WaitGroup
}

type routeMetrics struct {
	smPreferred *obs.Counter
	tcpFallback *obs.Counter
}

func newRouteMetrics(r *obs.Registry) *routeMetrics {
	return &routeMetrics{
		smPreferred: r.Counter("na.route.sm_preferred"),
		tcpFallback: r.Counter("na.route.tcp_fallback"),
	}
}

// listenUnix adds the colocated listener on the unix socket of the
// abstract name (no file: the kernel drops it with the listener) and turns
// the endpoint's address into the composite one. Before any traffic.
func (e *tcpEP) listenUnix(name string, bulk *shmBulk) error {
	ul, err := net.Listen("unix", "@"+name)
	if err != nil {
		return fmt.Errorf("na: sm listen: %w", err)
	}
	e.ul, e.bulk = ul, bulk
	e.host = smHostID()
	e.addr = DualAddr(schemeSM+e.host+"/"+name, e.addr)
	e.route.Store(newRouteMetrics(obs.Default()))
	e.loops.Add(1)
	go e.acceptLoop(ul)
	return nil
}

func (e *tcpEP) SetObserver(r *obs.Registry) {
	if r == nil {
		return
	}
	e.q.setDepthGauge(r.Gauge("na.queue.depth", "transport", "tcp"))
}

type tcpConn struct {
	mu sync.Mutex
	c  net.Conn

	// Send state, guarded by mu. prefix is the frame header plus this
	// endpoint's sender address (constant but for the data length); iov and
	// bufs are the gather list handed to writev, kept here so a send
	// allocates nothing; deadline is the write deadline currently armed.
	prefix   []byte
	iov      [3][]byte
	bufs     net.Buffers
	deadline time.Time
}

func newTCPConn(c net.Conn, from string) *tcpConn {
	prefix := make([]byte, 8+len(from))
	binary.LittleEndian.PutUint32(prefix[:4], uint32(len(from)))
	copy(prefix[8:], from)
	return &tcpConn{c: c, prefix: prefix}
}

func (e *tcpEP) Addr() string { return e.addr }

func (e *tcpEP) acceptLoop(l net.Listener) {
	defer e.loops.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		// Track the inbound conn so Close can reap it (and its readLoop);
		// untracked accepted conns used to leak goroutines and fds past
		// Close for as long as the remote side stayed up.
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			c.Close()
			return
		}
		e.accepted[c] = struct{}{}
		e.loops.Add(1)
		e.mu.Unlock()
		go func() {
			defer e.loops.Done()
			e.readLoop(c)
		}()
	}
}

func (e *tcpEP) readLoop(c net.Conn) {
	defer func() {
		c.Close()
		e.mu.Lock()
		delete(e.accepted, c)
		e.mu.Unlock()
	}()
	// A connection's peer stamps the same sender address on every frame, so
	// the previous frame's string is reused instead of allocated again. The
	// header and the sender are read into scratch, which is this loop's, not
	// each frame's.
	r := bufio.NewReaderSize(c, readBufSize)
	var last string
	scratch := make([]byte, 8+maxFromLen)
	if uc, ok := c.(*net.UnixConn); ok {
		// A unix-socket connection opens with its dialer's arena offer.
		from, am, err := recvOffer(uc, r, scratch)
		if err != nil {
			return
		}
		e.bulk.fileOffer(from, am)
		defer e.bulk.dropOffer(from, am)
		last = from
	}
	for {
		from, data, err := readFrame(r, scratch, last)
		if err != nil {
			return
		}
		last = from
		if !e.q.push(packet{from: from, data: data}) {
			bufpool.Put(data)
			return
		}
	}
}

// readFrame reads one frame: its 8-byte header and its sender into scratch
// (at least 8+maxFromLen bytes), its data into a buffer from bufpool that
// the caller owns. The data starts at the buffer's start, so a Put of it
// lands in the class a later Get of the same size draws from. lastFrom is
// the sender of the previous frame on this connection; it is returned again
// when the bytes match.
func readFrame(r io.Reader, scratch []byte, lastFrom string) (string, []byte, error) {
	hdr := scratch[:8]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return "", nil, err
	}
	fromLen := binary.LittleEndian.Uint32(hdr[:4])
	dataLen := binary.LittleEndian.Uint32(hdr[4:])
	if fromLen > maxFromLen || dataLen > maxFrame {
		return "", nil, ErrTooLarge
	}
	from := scratch[8 : 8+fromLen]
	if _, err := io.ReadFull(r, from); err != nil {
		return "", nil, err
	}
	if string(from) != lastFrom {
		lastFrom = string(from)
	}
	data := bufpool.Get(int(dataLen))
	if _, err := io.ReadFull(r, data); err != nil {
		bufpool.Put(data)
		return "", nil, err
	}
	return lastFrom, data, nil
}

// sendOffer writes the message a dual endpoint opens every unix-socket
// connection it dials with: an empty frame from its address, whose first
// byte passes its arena's descriptor (SCM_RIGHTS) for the acceptor to map
// (recvOffer). Control keeps a concurrent Close from reusing the descriptor.
func sendOffer(c *net.UnixConn, from string, arena *os.File) error {
	msg := newTCPConn(c, from).prefix // an empty frame's header, and the sender
	rc, _ := arena.SyscallConn()
	var err error
	cerr := rc.Control(func(fd uintptr) {
		_, _, err = c.WriteMsgUnix(msg, syscall.UnixRights(int(fd)), nil)
	})
	return cmp.Or(cerr, err)
}

// recvOffer reads the message that opens an accepted unix-socket
// connection (sendOffer) and maps the arena it offers; a nil mapping is an
// offer refused (mapOffer), whose frames are still read. An error means a
// malformed message: the connection is of no use. Every descriptor that
// came along is closed.
func recvOffer(c *net.UnixConn, r io.Reader, scratch []byte) (string, *smArenaMap, error) {
	hdr := (*[8]byte)(scratch)
	oob := make([]byte, syscall.CmsgSpace(8)) // a second descriptor is seen, and refused
	n, oobn, _, _, err := c.ReadMsgUnix(hdr[:], oob)
	fromLen, fds, derr := decodeOffer(hdr, oob[:oobn])
	for _, fd := range fds {
		defer syscall.Close(fd)
	}
	if err == nil && n < len(hdr) { // one sendmsg of a few bytes arrives whole
		err = io.ErrUnexpectedEOF
	}
	if err = cmp.Or(err, derr); err == nil {
		_, err = io.ReadFull(r, scratch[8:8+fromLen])
	}
	if err != nil {
		return "", nil, err
	}
	return string(scratch[8 : 8+fromLen]), mapOffer(fds[0]), nil
}

var errBadOffer = errors.New("na: malformed arena offer")

// decodeOffer decodes the head of the message recvOffer reads: hdr must be
// an empty frame's from at most maxFromLen bytes of address, and oob, the
// control messages with its first byte, one SCM_RIGHTS passing one
// descriptor, fds[0]. fds holds every descriptor passed, for the caller to
// close, whatever err says.
func decodeOffer(hdr *[8]byte, oob []byte) (fromLen int, fds []int, err error) {
	cmsgs, err := syscall.ParseSocketControlMessage(oob)
	for i := range cmsgs {
		if len(cmsgs[i].Data)%4 != 0 { // ParseUnixRights would index past it
			err = errBadOffer
			continue
		}
		got, rerr := syscall.ParseUnixRights(&cmsgs[i])
		fds = append(fds, got...)
		err = errors.Join(err, rerr)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if err != nil || len(cmsgs) != 1 || len(fds) != 1 || n > maxFromLen || binary.LittleEndian.Uint32(hdr[4:]) != 0 {
		return 0, fds, errBadOffer
	}
	return int(n), fds, nil
}

// writeFrame sends header+sender and the message (head then body) as one
// gathered write (writev on a TCP conn: one syscall, and the payload is not
// copied into a second buffer). The caller holds tc.mu, which also keeps
// frames from interleaving.
func (tc *tcpConn) writeFrame(head, body []byte) error {
	binary.LittleEndian.PutUint32(tc.prefix[4:8], uint32(len(head)+len(body)))
	tc.iov = [3][]byte{tc.prefix, head, body}
	tc.bufs = tc.iov[:]
	_, err := tc.bufs.WriteTo(tc.c)
	tc.iov = [3][]byte{}
	return err
}

func (e *tcpEP) Send(to string, data []byte) error { return e.SendGather(to, nil, data) }

func (e *tcpEP) SendGather(to string, head, body []byte) error {
	if len(head)+len(body) > maxFrame {
		return ErrTooLarge
	}
	conn, key, err := e.getConn(to)
	if err != nil {
		if errors.Is(err, ErrNoRoute) {
			return err
		}
		// Connection refused behaves like a lost datagram once the peer is
		// gone; surface only resolution-style failures (malformed address,
		// unresolvable host) — those mean the address can never work.
		if isAddressErr(err) {
			return fmt.Errorf("%w: %s: %v", ErrNoRoute, key, err)
		}
		return nil
	}
	conn.mu.Lock()
	if e.writeTimeout > 0 {
		// Arming the deadline resets a netpoll timer, so it is re-armed only
		// once less than half of it remains: a write that stalls still fails
		// between writeTimeout/2 and writeTimeout after it began.
		if now := time.Now(); conn.deadline.Sub(now) < e.writeTimeout/2 {
			conn.deadline = now.Add(e.writeTimeout)
			conn.c.SetWriteDeadline(conn.deadline)
		}
	}
	err = conn.writeFrame(head, body)
	conn.mu.Unlock()
	if err != nil {
		// Covers write timeouts too: the stalled conn is discarded so the
		// next Send re-dials instead of queueing behind a dead socket.
		e.dropConn(key, conn)
	}
	return nil
}

// isAddressErr classifies dial failures that indicate the address itself is
// unusable (missing port, malformed host, failed name resolution), as
// opposed to a live-network failure like connection refused. net.OpError
// wraps these, so errors.As unwraps through it.
func isAddressErr(err error) bool {
	var ae *net.AddrError
	if errors.As(err, &ae) {
		return true
	}
	var de *net.DNSError
	return errors.As(err, &de)
}

// peerRoute is how one destination address is reached: key is the tcp
// component every form of a peer's address shares, which names its cached
// connection, hostport what to dial over TCP, and sm the sm component a
// dual endpoint dials the unix socket by ("" if none).
type peerRoute struct {
	key, hostport, sm string
}

// maxRoutes bounds the split addresses an endpoint remembers; past it the
// table starts over.
const maxRoutes = 4096

// routeOf splits to into its route, once per address: SplitAddr builds two
// strings for a composite address, which a send would otherwise pay for on
// every frame. The caller holds e.mu.
func (e *tcpEP) routeOf(to string) (peerRoute, error) {
	if r, ok := e.routes[to]; ok {
		return r, nil
	}
	// A composite sm+tcp address is reached through its tcp component; the
	// sm one only matters to the dial, and only on a dual endpoint.
	sm, key := SplitAddr(to)
	if key == "" {
		key = to
	}
	hostport := strings.TrimPrefix(key, schemeTCP)
	if hostport == key {
		return peerRoute{}, fmt.Errorf("%w: %s (not a tcp address)", ErrNoRoute, to)
	}
	if len(e.routes) >= maxRoutes {
		clear(e.routes)
	}
	r := peerRoute{key: key, hostport: hostport, sm: sm}
	e.routes[to] = r
	return r, nil
}

// getConn returns the cached connection to the peer at to, dialing it on
// first use, and the key it is cached under.
func (e *tcpEP) getConn(to string) (*tcpConn, string, error) {
	e.mu.Lock()
	r, err := e.routeOf(to)
	if err != nil {
		e.mu.Unlock()
		return nil, to, err
	}
	if e.closed {
		e.mu.Unlock()
		return nil, r.key, ErrClosed
	}
	if c, ok := e.conns[r.key]; ok {
		e.mu.Unlock()
		return c, r.key, nil
	}
	e.mu.Unlock()

	raw, err := e.dial(r.hostport, r.sm)
	if err != nil {
		return nil, r.key, err
	}
	c := newTCPConn(raw, e.addr)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		raw.Close()
		return nil, r.key, ErrClosed
	}
	if old, ok := e.conns[r.key]; ok {
		e.mu.Unlock()
		raw.Close()
		return old, r.key, nil
	}
	e.conns[r.key] = c
	e.mu.Unlock()
	return c, r.key, nil
}

// dial opens the connection to a peer. Between two dual endpoints on one
// host (smPart, the sm component of the peer's composite address, names
// this host) it connects to the peer's unix socket and offers the peer its
// arena; whenever that is not possible — other host, socket gone, arena
// closed — and on a plain endpoint it connects to hostport over TCP. The
// choice holds for as long as the connection stays in the cache; a redial
// chooses again.
func (e *tcpEP) dial(hostport, smPart string) (net.Conn, error) {
	if e.ul == nil || smPart == "" {
		return net.Dial("tcp", hostport)
	}
	m := e.route.Load()
	if host, name, ok := smHostSocket(smPart); ok && host == e.host {
		if c, err := net.Dial("unix", "@"+name); err == nil {
			if err := sendOffer(c.(*net.UnixConn), e.addr, e.bulk.file); err == nil {
				m.smPreferred.Inc()
				return c, nil
			}
			c.Close()
		}
	}
	c, err := net.Dial("tcp", hostport)
	if err == nil {
		m.tcpFallback.Inc()
	}
	return c, err
}

func (e *tcpEP) dropConn(to string, c *tcpConn) {
	e.mu.Lock()
	if e.conns[to] == c {
		delete(e.conns, to)
	}
	e.mu.Unlock()
	c.c.Close()
}

func (e *tcpEP) Recv() (string, []byte, error) {
	p, err := e.q.pop()
	if err != nil {
		return "", nil, err
	}
	return p.from, p.data, nil
}

// Close stops the endpoint: listeners, connections and the receive queue
// close, and Close returns once the accept and read loops have exited.
func (e *tcpEP) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := e.conns
	e.conns = map[string]*tcpConn{}
	accepted := make([]net.Conn, 0, len(e.accepted))
	for c := range e.accepted {
		accepted = append(accepted, c)
	}
	e.mu.Unlock()
	e.l.Close()
	if e.ul != nil {
		e.ul.Close()
	}
	for _, c := range conns {
		c.c.Close()
	}
	// Closing inbound conns unblocks their readLoops, which deregister
	// themselves; without this, accepted sockets (and their goroutines)
	// outlived the endpoint.
	for _, c := range accepted {
		c.Close()
	}
	e.q.close()
	e.loops.Wait()
	return nil
}
