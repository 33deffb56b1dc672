package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/stream"
)

// writeFrame sends one fixed-size frame.
func writeFrame(conn net.Conn, m Msg) error {
	b := EncodeMsg(m)
	_, err := conn.Write(b[:])
	return err
}

// readFrame receives one fixed-size frame.
func readFrame(conn net.Conn) (Msg, error) {
	var b [MsgSize]byte
	if _, err := io.ReadFull(conn, b[:]); err != nil {
		return Msg{}, err
	}
	return DecodeMsg(b), nil
}

// connWriter owns all writes to one site connection. Frames are enqueued
// in processing order and written by a dedicated goroutine, so the
// coordinator never blocks on a full socket buffer while holding its
// mutex (which would deadlock against a site blocked the same way), yet
// per-connection FIFO order — the ordering Barrier relies on — is kept.
type connWriter struct {
	conn net.Conn

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []Msg
	inflight bool // a frame is popped but not yet written
	err      error
	closed   bool
}

// closeDrainTimeout bounds how long close waits for queued frames to reach
// the socket: a peer that stopped reading must not hang shutdown forever.
const closeDrainTimeout = 2 * time.Second

func newConnWriter(conn net.Conn) *connWriter {
	w := &connWriter{conn: conn}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// enqueue appends a frame for writing. It never blocks.
func (w *connWriter) enqueue(m Msg) {
	w.mu.Lock()
	if !w.closed && w.err == nil {
		w.queue = append(w.queue, m)
		w.cond.Signal()
	}
	w.mu.Unlock()
}

// loop drains the queue until a write fails or the writer is closed AND
// empty — close does not abandon queued frames; it stops new ones and
// waits for the drain. The first write failure is reported through fail.
func (w *connWriter) loop(fail func(error)) {
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed && w.err == nil {
			w.cond.Wait()
		}
		if w.err != nil || (w.closed && len(w.queue) == 0) {
			w.cond.Broadcast() // wake a close() waiting on the drain
			w.mu.Unlock()
			return
		}
		m := w.queue[0]
		w.queue = w.queue[1:]
		w.inflight = true
		w.mu.Unlock()
		err := writeFrame(w.conn, m)
		w.mu.Lock()
		w.inflight = false
		if err != nil && w.err == nil {
			w.err = err
		}
		w.cond.Broadcast()
		w.mu.Unlock()
		if err != nil {
			fail(err)
			return
		}
	}
}

// close stops the writer after draining what is already queued: frames the
// Coordinator enqueued (and counted in Stats) before shutdown still reach
// the wire. The drain is bounded by the absolute deadline — a write
// deadline on the connection cuts it off if the peer has stopped reading —
// so close cannot hang, and a caller closing many writers sequentially
// (Coordinator.Close) passes one shared deadline so total shutdown stays
// bounded by it, not by its multiple.
func (w *connWriter) close(deadline time.Time) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.cond.Broadcast()
	if w.err == nil && (len(w.queue) > 0 || w.inflight) {
		w.conn.SetWriteDeadline(deadline)
		for (len(w.queue) > 0 || w.inflight) && w.err == nil {
			w.cond.Wait()
		}
	}
	w.mu.Unlock()
}

// Coordinator runs a CoordAlgo behind a TCP listener. All algorithm
// access, write enqueueing, and stats updates are serialized on one
// mutex, so frames read from any one site are processed in arrival order
// and every frame queued to a site happens-after the processing that
// triggered it; per-connection writers preserve that order on the wire.
type Coordinator struct {
	ln   net.Listener
	k    int
	algo CoordAlgo

	mu     sync.Mutex
	ledger // guarded by mu
	conns  []*connWriter
	err    error
	closed bool

	// Failure detection (SetFailureDetection): a checker goroutine sweeps
	// the liveness core, whose times are nanoseconds since start. While
	// enabled, losing a site connection is a tolerated fault rather than a
	// transport error: it ends the slot's incarnation, frames to an
	// unconnected slot count as Dropped, and a re-dial for a dead or ended
	// slot is a takeover. fdStop is non-nil exactly when enabled.
	live   liveness
	start  time.Time
	fdStop chan struct{}

	// Standby mode (epoch > 0, see listenCoordinator): the coordinator is a
	// replacement for a dead predecessor, and each site's first registration
	// fires the CoordTakeover announcement — before any of that site's
	// frames are read, so the announce is the first frame the site receives.
	standbyEpoch int64
	announced    []bool

	wg sync.WaitGroup
}

// ListenCoordinator starts a coordinator for k sites on addr (use port 0
// for an ephemeral port) and accepts site connections in the background.
func ListenCoordinator(addr string, k int, algo CoordAlgo) (*Coordinator, error) {
	return listenCoordinator(addr, k, algo, 0)
}

// listenCoordinator starts coordinator incarnation epoch. Epoch 0 is the
// first; a later one is a standby replacing a crashed predecessor
// (NetCluster.CoordTakeover), typically serving an algorithm restored from
// a snapshot. A standby differs in the handshake only: as each site
// registers for the first time, the algorithm's CoordTakeover hook
// announces the epoch to it (KindCoordTakeover) before any of that site's
// frames are read, and the takeover is counted once in
// Stats.CoordTakeovers.
func listenCoordinator(addr string, k int, algo CoordAlgo, epoch int64) (*Coordinator, error) {
	if k <= 0 {
		return nil, errors.New("dist: a coordinator needs k > 0")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{ln: ln, k: k, algo: algo, conns: make([]*connWriter, k), start: time.Now()}
	c.wall = wallNanos
	c.live = newLiveness(&c.algo, coordOutbox{c}, &c.ledger, k)
	c.live.redials = true
	if epoch > 0 {
		c.standbyEpoch, c.announced = epoch, make([]bool, k)
		c.stats.CoordTakeovers = 1
	}
	c.wg.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the address sites should dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// acceptLoop accepts connections until the listener closes. Connections
// that fail the handshake (strays, duplicates) are dropped without
// consuming a site slot, so a legitimate site can always still register.
func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			c.fail(err)
			return
		}
		c.wg.Add(1)
		go c.serve(conn)
	}
}

// serve handles one site connection: a handshake frame naming the site,
// then data and barrier frames until the connection closes. Connections
// that fail the handshake — strays, bad ids, duplicates — are dropped
// without registering and without poisoning the coordinator's error.
func (c *Coordinator) serve(conn net.Conn) {
	defer c.wg.Done()
	hello, err := readFrame(conn)
	if err != nil || hello.Kind != kindHello {
		conn.Close()
		return
	}
	id := int(hello.Site)
	c.mu.Lock()
	if id < 0 || id >= c.k {
		c.mu.Unlock()
		conn.Close()
		return
	}
	if c.conns[id] != nil {
		if c.fdStop == nil || !c.live.slots[id].dead {
			c.mu.Unlock()
			conn.Close()
			return
		}
		// Re-dial for a dead slot whose broken connection the OS has not
		// reported yet: retire the old writer off-lock and take the slot.
		old := c.conns[id]
		c.conns[id] = nil
		go func() {
			old.close(time.Now().Add(closeDrainTimeout))
			old.conn.Close()
		}()
	}
	w := newConnWriter(conn)
	c.conns[id] = w
	if c.fdStop != nil {
		// Into a dead or ended slot this is a takeover, spliced before any
		// of the new connection's frames are read, so the hook's output
		// (attach re-announcements) is queued ahead of the replies the
		// replacement's own announcement will trigger.
		c.live.splice(id, c.clock(), 0, 0)
	}
	if c.announced != nil && !c.announced[id] {
		// Standby mode: the coordinator-side takeover announcement is the
		// first frame a re-connecting site receives.
		c.announced[id] = true
		c.live.emit(EvCoordTakeover, int32(id), c.standbyEpoch, 0)
		if t, ok := c.algo.(CoordTakeover); ok {
			t.OnCoordTakeover(id, c.standbyEpoch, coordOutbox{c})
		}
	}
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		w.loop(func(err error) { c.unregister(id, w, err) })
	}()

	for {
		m, err := readFrame(conn)
		if err == nil && (m.Site < 0 || int(m.Site)%c.k != id) {
			// Every frame a site sends names its own slot, tagged (virtual
			// node q·k+id) or not: a frame routed anywhere else is malformed
			// and never reaches the algorithm, which indexes by that field.
			err = fmt.Errorf("dist: site %d sent a frame routed to node %d", id, m.Site)
		}
		if err != nil {
			c.unregister(id, w, err)
			w.close(time.Now().Add(closeDrainTimeout))
			conn.Close()
			return
		}
		// Transport demux: only the transport-internal kinds are handled
		// here — every protocol kind is the algorithm's business and is
		// forwarded wholesale by the default clause, so new kinds need no
		// transport change.
		//varlint:kinds KindAttach,KindCoordTakeover,KindCountReport,KindDetach,KindDriftReport,KindFreqEnd,KindFreqReport,KindNewBlock,KindStateReply,KindStateRequest,KindTakeover,KindValueReport
		switch m.Kind {
		case kindHeartbeat:
			// A beacon on the original connection: a real crash kills the
			// connection, and its replacement re-enters through the splice
			// above, so a dead verdict rescinded here was a stall.
			c.mu.Lock()
			c.live.beat(id, c.clock())
			c.mu.Unlock()
		case kindBarrier:
			// This goroutine already enqueued (under c.mu, in arrival
			// order) everything triggered by this site's earlier frames,
			// so queuing the ack here puts it behind them on the wire:
			// when the site reads the ack, every prior frame to it has
			// been delivered in order.
			w.enqueue(Msg{Kind: kindBarrierAck, Site: int32(id), A: m.A})
		default:
			c.mu.Lock()
			c.delivered(&m, CoordID, 0)
			c.algo.OnMessage(m, coordOutbox{c})
			c.mu.Unlock()
		}
	}
}

// unregister retires slot id's connection w after a read or write failure.
// Both are the same event: the slot goes empty so later traffic to it
// surfaces as a "message to unconnected site" error instead of being
// silently discarded while still counted in Stats. Under failure detection
// a lost connection is the fault being tolerated, not a transport error —
// it ends the incarnation, the detector decides whether the site is dead,
// and writes to the empty slot count as Dropped.
func (c *Coordinator) unregister(id int, w *connWriter, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fdStop == nil {
		c.failLocked(err)
	}
	if c.conns[id] == w {
		c.conns[id] = nil
		if c.fdStop != nil {
			c.live.ended(id)
		}
	}
}

func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	c.failLocked(err)
	c.mu.Unlock()
}

// failLocked records the first transport error; expected shutdown errors
// (EOF from a site closing, anything after Close) are ignored.
func (c *Coordinator) failLocked(err error) {
	if c.closed || err == io.EOF {
		return
	}
	if c.err == nil {
		c.err = err
	}
}

// writeLocked queues m for one site and accounts it. Callers hold c.mu,
// which orders enqueues across the serve goroutines; the per-connection
// writer preserves that order on the wire.
func (c *Coordinator) writeLocked(site int, m Msg) {
	if site < 0 || site >= c.k || c.conns[site] == nil {
		if site >= 0 && site < c.k && c.fdStop != nil {
			// Tolerated fault: the slot is dead (or mid-takeover) and the
			// message is honestly lost. Account it so the degradation is
			// visible, per class too — attribution must keep summing.
			c.dropped(&m, EvDrop, int32(site), int32(site))
			return
		}
		c.failLocked(fmt.Errorf("dist: message to unconnected site %d", site))
		return
	}
	c.conns[site].enqueue(m)
	c.delivered(&m, int32(site), 0)
}

// SetEventSink installs a protocol event tracer covering both directions
// of the coordinator's traffic plus its liveness machinery (see
// EventKind). Event.Now is wall nanoseconds — the TCP transport is the
// one runtime that is not deterministic anyway — and Event.T is 0: the
// coordinator does not see stream steps. The sink runs under the
// coordinator mutex: it must not block or call back in.
func (c *Coordinator) SetEventSink(sink EventSink) {
	c.mu.Lock()
	c.Events = sink
	c.mu.Unlock()
}

// wallNanos is the Coordinator ledger's event clock.
func wallNanos() int64 { return time.Now().UnixNano() }

// clock is the liveness core's time: nanoseconds since the coordinator
// started, on the monotonic clock.
func (c *Coordinator) clock() int64 { return int64(time.Since(c.start)) }

// coordOutbox emits coordinator messages; methods run with c.mu held,
// inside Coordinator.serve's OnMessage dispatch.
type coordOutbox struct{ c *Coordinator }

// Send implements Outbox (at the coordinator, a broadcast).
func (o coordOutbox) Send(m Msg) { o.Broadcast(m) }

// SendTo implements Outbox.
func (o coordOutbox) SendTo(site int, m Msg) { o.c.writeLocked(site, m) }

// Broadcast implements Outbox.
func (o coordOutbox) Broadcast(m Msg) {
	for i := 0; i < o.c.k; i++ {
		o.c.writeLocked(i, m)
	}
}

// Estimate returns the coordinator algorithm's current estimate.
func (c *Coordinator) Estimate() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.algo.Estimate()
}

// Stats returns the communication counters so far (both directions).
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger.Stats()
}

// SetClassifier installs a per-class Stats attribution (see Classifier)
// covering both directions of the coordinator's traffic. Install it before
// sites start sending so no message goes unattributed.
func (c *Coordinator) SetClassifier(cl Classifier) {
	c.mu.Lock()
	c.ledger.SetClassifier(cl)
	c.mu.Unlock()
}

// ClassStats returns a snapshot of the per-class counters, indexed by
// class. Nil when no classifier is installed.
func (c *Coordinator) ClassStats() []Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ledger.ClassStats()
}

// Inject runs fn with the coordinator's outbox while holding the
// coordinator lock — the hook for coordinator-initiated control traffic
// (e.g. attaching a tracking query mid-stream) and for consistent reads of
// the coordinator algorithm's state. fn must not block on the network.
func (c *Coordinator) Inject(fn func(Outbox)) {
	c.mu.Lock()
	fn(coordOutbox{c})
	c.mu.Unlock()
}

// SetFailureDetection turns on heartbeat-driven failure detection: sites
// beacon (NetSite.StartHeartbeats) every `every`, and a checker declares a
// site dead after `miss` consecutive overdue intervals (≤ 0 defaults to 3),
// firing the algorithm's CoordFailureHandler hook. Call it before sites
// dial; calling it twice or after Close is a no-op.
func (c *Coordinator) SetFailureDetection(every time.Duration, miss int) {
	if every <= 0 {
		every = 50 * time.Millisecond
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fdStop != nil || c.closed {
		return
	}
	c.fdStop = make(chan struct{})
	// A beacon is overdue one full interval beyond its cadence.
	c.live.arm(int64(2*every), miss)
	c.live.coordSplice(c.clock())
	c.wg.Add(1)
	go c.checkLoop(every, c.fdStop)
}

// checkLoop sweeps the failure detector every interval until Close.
func (c *Coordinator) checkLoop(every time.Duration, stop chan struct{}) {
	defer c.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				return
			}
			c.live.sweep(int64(now.Sub(c.start)))
			c.mu.Unlock()
		}
	}
}

// SiteDead reports the failure detector's current verdict on site (always
// false without SetFailureDetection).
func (c *Coordinator) SiteDead(site int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return site >= 0 && site < c.k && c.live.slots[site].dead
}

// Err returns the first transport error, if any.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close shuts down the listener and all site connections and waits for the
// serving goroutines to exit. It returns the first transport error seen
// before the shutdown began.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := append([]*connWriter(nil), c.conns...)
	err := c.err
	fdStop := c.fdStop
	c.mu.Unlock()
	if fdStop != nil {
		close(fdStop)
	}
	c.ln.Close()
	// One absolute deadline across all writers: each drain runs in its own
	// goroutine, so waiting on them in turn still finishes by the deadline
	// instead of paying it once per stalled site.
	deadline := time.Now().Add(closeDrainTimeout)
	for _, w := range conns {
		if w != nil {
			w.close(deadline)
			w.conn.Close()
		}
	}
	c.wg.Wait()
	return err
}

// NetSite runs a SiteAlgo over one TCP connection to a coordinator. Update
// calls and inbound coordinator messages are serialized on one mutex, so
// the algorithm never sees concurrent access and its outbound frames are
// written in processing order.
type NetSite struct {
	conn net.Conn
	id   int
	algo SiteAlgo

	mu     sync.Mutex
	stats  Stats
	err    error
	closed bool
	seq    int64 // barrier sequence numbers issued

	ackMu   sync.Mutex
	ackCond *sync.Cond
	acked   int64
	ackErr  error

	hbStop chan struct{} // non-nil once StartHeartbeats ran

	done chan struct{}
}

// DialNetSiteRetry is DialNetSite with exponential backoff and jitter,
// retrying refused or failed dials until timeout. It is how a site (or a
// takeover replacement) joins a coordinator that may not be listening yet —
// the jitter keeps k sites restarted together from re-dialing in lockstep.
func DialNetSiteRetry(addr string, id int, algo SiteAlgo, timeout time.Duration) (*NetSite, error) {
	deadline := time.Now().Add(timeout)
	backoff := 10 * time.Millisecond
	for {
		s, err := DialNetSite(addr, id, algo)
		if err == nil {
			return s, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("dist: dial %s for site %d: %w", addr, id, err)
		}
		// Jitter in [backoff/2, 3·backoff/2): wall-clock seeded, since the
		// TCP path is not deterministic anyway.
		j := time.Duration(time.Now().UnixNano()) % backoff
		time.Sleep(backoff/2 + j)
		backoff *= 2
		if backoff > time.Second {
			backoff = time.Second
		}
	}
}

// DialNetSite connects site id to the coordinator at addr and serves algo.
// It returns after the coordinator has registered the site, so once all k
// dials return, coordinator broadcasts can reach every site.
func DialNetSite(addr string, id int, algo SiteAlgo) (*NetSite, error) {
	if id < 0 {
		return nil, fmt.Errorf("dist: bad site id %d", id)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &NetSite{conn: conn, id: id, algo: algo, done: make(chan struct{})}
	s.ackCond = sync.NewCond(&s.ackMu)
	if err := writeFrame(conn, Msg{Kind: kindHello, Site: int32(id)}); err != nil {
		conn.Close()
		return nil, err
	}
	go s.readLoop()
	// The handshake is acknowledged via a first barrier: its ack proves
	// the coordinator has registered this connection.
	if err := s.Barrier(); err != nil {
		s.Close()
		return nil, fmt.Errorf("dist: handshake with %s failed: %w", addr, err)
	}
	return s, nil
}

func (s *NetSite) readLoop() {
	defer close(s.done)
	for {
		m, err := readFrame(s.conn)
		if err != nil {
			s.failRead(err)
			return
		}
		if m.Kind == kindBarrierAck {
			s.ackMu.Lock()
			if m.A > s.acked {
				s.acked = m.A
			}
			s.ackCond.Broadcast()
			s.ackMu.Unlock()
			continue
		}
		s.mu.Lock()
		s.stats.add(&m, int32(s.id), 0)
		s.algo.OnMessage(m, siteOutbox{s})
		s.mu.Unlock()
	}
}

// failRead records a read error and wakes any barrier waiter so it cannot
// hang on a dead connection.
func (s *NetSite) failRead(err error) {
	s.mu.Lock()
	closed := s.closed
	if !closed && err != io.EOF && s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.ackMu.Lock()
	if s.ackErr == nil {
		if closed || err == io.EOF {
			s.ackErr = net.ErrClosed
		} else {
			s.ackErr = err
		}
	}
	s.ackCond.Broadcast()
	s.ackMu.Unlock()
}

// writeLocked frames m to the coordinator and accounts it. Callers hold
// s.mu.
func (s *NetSite) writeLocked(m Msg) {
	if s.closed || s.err != nil {
		return
	}
	if err := writeFrame(s.conn, m); err != nil {
		s.err = err
		return
	}
	s.stats.add(&m, CoordID, 0)
}

// siteOutbox emits site messages; methods run with s.mu held. All three
// directions collapse to "send to the coordinator" in the star topology.
type siteOutbox struct{ s *NetSite }

// Send implements Outbox.
func (o siteOutbox) Send(m Msg) { o.s.writeLocked(m) }

// SendTo implements Outbox.
func (o siteOutbox) SendTo(site int, m Msg) { o.s.writeLocked(m) }

// Broadcast implements Outbox.
func (o siteOutbox) Broadcast(m Msg) { o.s.writeLocked(m) }

// Update feeds one local stream update to the site algorithm; messages it
// emits are framed to the coordinator immediately. Transport errors
// surface on the next Barrier call.
func (s *NetSite) Update(u stream.Update) {
	s.mu.Lock()
	s.algo.OnUpdate(u, siteOutbox{s})
	s.mu.Unlock()
}

// Barrier flushes the connection both ways: when it returns, the
// coordinator has processed every message this site sent before the call,
// and this site has processed every coordinator message sent to it before
// the acknowledgement. Responses triggered at other sites need their own
// barrier; request/reply protocols reach quiescence after a bounded number
// of rounds of barriers over all sites.
func (s *NetSite) Barrier() error {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.seq++
	seq := s.seq
	if err := writeFrame(s.conn, Msg{Kind: kindBarrier, Site: int32(s.id), A: seq}); err != nil {
		s.err = err
		s.mu.Unlock()
		return err
	}
	s.mu.Unlock()

	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	for s.acked < seq && s.ackErr == nil {
		s.ackCond.Wait()
	}
	if s.acked >= seq {
		return nil
	}
	return s.ackErr
}

// Inject runs fn with the site's outbox while holding the site lock — the
// hook for site-initiated control traffic (a takeover announcement) and for
// consistent reads of the site algorithm's state (snapshots). fn must not
// block on the network.
func (s *NetSite) Inject(fn func(Outbox)) {
	s.mu.Lock()
	fn(siteOutbox{s})
	s.mu.Unlock()
}

// StartHeartbeats begins beaconing kindHeartbeat frames every `every` so
// the coordinator's failure detector (SetFailureDetection, same interval)
// sees this site as live. Heartbeats are transport-internal: they bypass
// message Stats except the liveness counters. Stops at Close; calling
// twice is a no-op.
func (s *NetSite) StartHeartbeats(every time.Duration) {
	if every <= 0 {
		every = 50 * time.Millisecond
	}
	s.mu.Lock()
	if s.hbStop != nil || s.closed {
		s.mu.Unlock()
		return
	}
	s.hbStop = make(chan struct{})
	stop := s.hbStop
	s.mu.Unlock()
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-s.done:
				return
			case <-t.C:
				s.mu.Lock()
				if !s.closed && s.err == nil {
					if err := writeFrame(s.conn, Msg{Kind: kindHeartbeat, Site: int32(s.id)}); err != nil {
						s.err = err
					} else {
						s.stats.HeartbeatsSent++
					}
				}
				s.mu.Unlock()
			}
		}
	}()
}

// Stats returns this site's view of the traffic it sent and received.
func (s *NetSite) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close tears down the connection and waits for the reader to exit. Safe
// to call more than once.
func (s *NetSite) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	hbStop := s.hbStop
	s.hbStop = nil
	s.mu.Unlock()
	if hbStop != nil {
		close(hbStop)
	}
	s.conn.Close()
	<-s.done
	return nil
}
