package dessim

import "time"

// Message is an item delivered through a Mailbox.
type Message struct {
	From string      // sender identity, interpreted by the layer above
	Data interface{} // payload
}

// Mailbox is an unbounded FIFO message queue usable by simulated processes.
// Deliveries always go through the event queue, so a process that sends and
// a process that receives never interact directly: ordering is governed by
// virtual time and, within a timestamp, by delivery order.
type Mailbox struct {
	sim     *Sim
	name    string
	queue   []Message
	waiters []*Proc
	closed  bool
}

// NewMailbox creates a mailbox bound to s.
func (s *Sim) NewMailbox(name string) *Mailbox {
	return &Mailbox{sim: s, name: name}
}

// Deliver enqueues msg after d of virtual time. It may be called from
// scheduler context or from a running process.
func (m *Mailbox) Deliver(d time.Duration, msg Message) {
	m.sim.After(d, func() {
		if m.closed {
			return
		}
		m.queue = append(m.queue, msg)
		m.wakeOne()
	})
}

func (m *Mailbox) wakeOne() {
	if len(m.waiters) == 0 {
		return
	}
	w := m.waiters[0]
	m.waiters = m.waiters[1:]
	m.sim.runProc(w)
}

// Close marks the mailbox closed and wakes all waiters; subsequent and
// pending Recv calls return ok=false once the queue drains.
func (m *Mailbox) Close() {
	m.sim.After(0, func() {
		m.closed = true
		for len(m.waiters) > 0 {
			m.wakeOne()
		}
	})
}

// Recv blocks the calling process until a message is available or the
// mailbox is closed and drained. It reports ok=false in the latter case.
func (m *Mailbox) Recv(p *Proc) (Message, bool) {
	for len(m.queue) == 0 {
		if m.closed {
			return Message{}, false
		}
		m.waiters = append(m.waiters, p)
		p.park("recv " + m.name)
	}
	msg := m.queue[0]
	m.queue = m.queue[1:]
	return msg, true
}

// Len reports the number of queued messages.
func (m *Mailbox) Len() int { return len(m.queue) }
