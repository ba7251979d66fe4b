package na

import (
	"os"
	"strings"
)

// Address schemes. A plain transport address is "tcp://host:port" or
// "inproc://name". A dual endpoint (ListenDual) advertises one composite
// address carrying its TCP listener and, as an sm component
// "sm://<host>/<name>", the abstract name of its unix socket:
//
//	sm+tcp://<host>/<name>;<host:port>
//
// The composite travels everywhere a plain address does (connection file,
// SSG membership, mercury frames, bulk handles); a sender picks the socket
// when it dials. Addresses stay opaque above this package — these helpers
// are the only parser.

const (
	schemeTCP  = "tcp://"
	schemeSM   = "sm://"
	schemeDual = "sm+tcp://"
)

// dualSep separates the sm and tcp components inside a composite address.
const dualSep = ";"

// SplitAddr decomposes any address into its sm:// and tcp:// components.
// A plain address fills only its own slot; unknown schemes fill neither.
func SplitAddr(addr string) (sm, tcp string) {
	switch {
	case strings.HasPrefix(addr, schemeDual):
		rest := strings.TrimPrefix(addr, schemeDual)
		i := strings.LastIndex(rest, dualSep)
		if i < 0 {
			return "", ""
		}
		return schemeSM + rest[:i], schemeTCP + rest[i+1:]
	case strings.HasPrefix(addr, schemeSM):
		return addr, ""
	case strings.HasPrefix(addr, schemeTCP):
		return "", addr
	}
	return "", ""
}

// DualAddr composes the composite address for an endpoint listening on
// both transports.
func DualAddr(smAddr, tcpAddr string) string {
	return schemeDual + strings.TrimPrefix(smAddr, schemeSM) + dualSep + strings.TrimPrefix(tcpAddr, schemeTCP)
}

// smHostSocket splits an sm:// address into its host identity and the
// abstract name of the endpoint's unix socket. ok is false for non-sm
// addresses and malformed forms.
func smHostSocket(addr string) (host, name string, ok bool) {
	rest, found := strings.CutPrefix(addr, schemeSM)
	if !found {
		return "", "", false
	}
	host, name, _ = strings.Cut(rest, "/")
	return host, name, host != "" && name != ""
}

// smHostID is this process's host identity embedded in sm:// addresses: a
// same-host check must never dial a socket name that belongs to another
// machine which happens to use an identical one.
func smHostID() string {
	h, err := os.Hostname()
	if err != nil || h == "" {
		return "localhost"
	}
	// The hostname becomes one address path element; keep it separator-free.
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', ';', ' ', '\n':
			return '-'
		}
		return r
	}, h)
}
