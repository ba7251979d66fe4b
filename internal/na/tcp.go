package na

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"colza/internal/obs"
)

// maxFrame bounds a single TCP message frame (64 MiB), protecting the
// receiver from corrupt length prefixes.
const maxFrame = 64 << 20

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
		accepted:     make(map[net.Conn]struct{}),
		writeTimeout: defaultTCPWriteTimeout,
	}
	go ep.acceptLoop(l)
	return ep, nil
}

// tcpEP is the stream-socket endpoint: length-prefixed frames over one
// cached connection per peer. A plain endpoint (ListenTCP) has a TCP
// listener only; a dual endpoint (ListenDual) adds a unix-socket listener
// that colocated peers dial instead — same framing, same loops.
type tcpEP struct {
	// addr is the endpoint's address, stamped as the sender on outgoing
	// frames: "tcp://host:port", or the composite form for a dual endpoint,
	// so the responder can choose its own link back.
	addr         string
	l            net.Listener
	q            *pktQueue
	writeTimeout time.Duration

	// The unix listener of a dual endpoint (nil on a plain one), this
	// host's identity in composite addresses, and the dial-time counters of
	// which socket a composite peer was reached over.
	ul    net.Listener
	host  string
	route atomic.Pointer[routeMetrics]

	mu       sync.Mutex
	conns    map[string]*tcpConn   // outbound dials, keyed by peer address
	accepted map[net.Conn]struct{} // inbound conns owned by readLoops
	closed   bool
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

// listenUnix adds the colocated listener at base+".sock" and turns the
// endpoint's address into the composite one. Before any traffic.
func (e *tcpEP) listenUnix(base string) error {
	ul, err := net.Listen("unix", base+".sock")
	if err != nil {
		return fmt.Errorf("na: sm listen: %w", err)
	}
	e.ul = ul
	e.host = smHostID()
	e.addr = DualAddr(schemeSM+e.host+base, e.addr)
	e.route.Store(newRouteMetrics(obs.Default()))
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
		e.mu.Unlock()
		go e.readLoop(c)
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
	// the previous frame's string is reused instead of allocated again.
	// The header buffer escapes through io.ReadFull, so it is this loop's, not
	// each frame's.
	var last string
	hdr := make([]byte, 8)
	for {
		from, data, err := readFrame(c, hdr, last)
		if err != nil {
			return
		}
		last = from
		if !e.q.push(packet{from: from, data: data}) {
			return
		}
	}
}

// readFrame reads one frame, its 8-byte header into hdr. lastFrom is the
// sender of the previous frame on this connection; it is returned again when
// the bytes match.
func readFrame(r io.Reader, hdr []byte, lastFrom string) (string, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:8]); err != nil {
		return "", nil, err
	}
	fromLen := binary.LittleEndian.Uint32(hdr[:4])
	dataLen := binary.LittleEndian.Uint32(hdr[4:])
	if fromLen > 4096 || dataLen > maxFrame {
		return "", nil, ErrTooLarge
	}
	buf := make([]byte, int(fromLen)+int(dataLen))
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", nil, err
	}
	if string(buf[:fromLen]) != lastFrom {
		lastFrom = string(buf[:fromLen])
	}
	return lastFrom, buf[fromLen:], nil
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
	// A composite sm+tcp address is reached through its tcp component; the
	// sm one only matters to the dial, and only on a dual endpoint.
	smPart, tcpPart := SplitAddr(to)
	if tcpPart != "" {
		to = tcpPart
	}
	hostport := strings.TrimPrefix(to, schemeTCP)
	if hostport == to {
		return fmt.Errorf("%w: %s (not a tcp address)", ErrNoRoute, to)
	}
	conn, err := e.getConn(to, hostport, smPart)
	if err != nil {
		// Connection refused behaves like a lost datagram once the peer is
		// gone; surface only resolution-style failures (malformed address,
		// unresolvable host) — those mean the address can never work.
		if isAddressErr(err) {
			return fmt.Errorf("%w: %s: %v", ErrNoRoute, to, err)
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
		e.dropConn(to, conn)
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

func (e *tcpEP) getConn(to, hostport, smPart string) (*tcpConn, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := e.conns[to]; ok {
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	raw, err := e.dial(hostport, smPart)
	if err != nil {
		return nil, err
	}
	c := newTCPConn(raw, e.addr)
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		raw.Close()
		return nil, ErrClosed
	}
	if old, ok := e.conns[to]; ok {
		e.mu.Unlock()
		raw.Close()
		return old, nil
	}
	e.conns[to] = c
	e.mu.Unlock()
	return c, nil
}

// dial opens the connection to a peer. Between two dual endpoints on one
// host (smPart, the sm component of the peer's composite address, names
// this host) it connects to the peer's unix socket; whenever that is not
// possible — other host, socket gone — and on a plain endpoint it connects
// to hostport over TCP. The choice holds for as long as the connection
// stays in the cache; a redial chooses again.
func (e *tcpEP) dial(hostport, smPart string) (net.Conn, error) {
	if e.ul == nil || smPart == "" {
		return net.Dial("tcp", hostport)
	}
	m := e.route.Load()
	if host, base, ok := smHostBase(smPart); ok && host == e.host {
		if c, err := net.Dial("unix", base+".sock"); err == nil {
			m.smPreferred.Inc()
			return c, nil
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
		e.ul.Close() // unlinks the socket file
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
	return nil
}
