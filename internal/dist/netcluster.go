package dist

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/stream"
)

// NetConfig is each site's dial retry budget (≤ 0: one attempt) and the
// heartbeat interval (0: no failure detection, so no site crashes) and
// miss threshold (≤ 0: 3) of every coordinator incarnation and connection.
type NetConfig struct {
	DialTimeout   time.Duration
	Heartbeat     time.Duration
	HeartbeatMiss int
}

// NetCluster is the live TCP deployment of a CoordAlgo and its k SiteAlgos
// on loopback, with AsyncSim's fault machinery on the wall clock: every
// coordinator incarnation and its epoch (CrashCoord, CoordTakeover), the
// backlog held while a slot or the coordinator is down, the site takeover
// gated on the detector's verdict (CrashSite), merged Stats, and
// Settle, the one quiescence rule. Shared queries carry AsyncSim's names,
// so code is written once over both. Use it from one goroutine.
type NetCluster struct {
	// OnTakeover, when non-nil, observes each completed site takeover and
	// how many held updates it replayed.
	OnTakeover func(site, replayed int)

	cfg       NetConfig
	class     Classifier
	sink      EventSink
	coord     *Coordinator   // the serving incarnation (closed while coordDown)
	coords    []*Coordinator // every incarnation, for Stats and Close
	coordDown bool
	sites     []*NetSite // per slot: its latest connection
	algos     []SiteAlgo // per slot: the algorithm that connection serves
	dialed    []*NetSite // every connection, for Stats and Close
	backlog   backlog
	crashed   []bool      // the slot's process is dead
	repl      []SiteAlgo  // its armed replacement, or nil
	killedAt  []time.Time // when it died
	err       error       // the first transport error
}

// NewNetCluster listens for coord on an ephemeral loopback port and dials
// every site into it.
func NewNetCluster(coord CoordAlgo, sites []SiteAlgo, cfg NetConfig) (*NetCluster, error) {
	k := len(sites)
	c := &NetCluster{cfg: cfg, sites: make([]*NetSite, k), algos: slices.Clone(sites),
		backlog: make(backlog, k), crashed: make([]bool, k), repl: make([]SiteAlgo, k),
		killedAt: make([]time.Time, k)}
	if err := c.listen(coord); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// listen brings the next coordinator incarnation up (after the first, a
// standby announcing its epoch) and dials every live slot into it.
func (c *NetCluster) listen(algo CoordAlgo) error {
	coord, err := listenCoordinator("127.0.0.1:0", len(c.sites), algo, int64(len(c.coords)))
	if err != nil {
		return err
	}
	c.coord, c.coords = coord, append(c.coords, coord)
	coord.SetClassifier(c.class)
	coord.SetEventSink(c.sink)
	if c.cfg.Heartbeat > 0 {
		coord.SetFailureDetection(c.cfg.Heartbeat, c.cfg.HeartbeatMiss)
	}
	for i, algo := range c.algos {
		if !c.crashed[i] {
			if err := c.dial(i, algo); err != nil {
				return err
			}
		}
	}
	return nil
}

// dial connects algo into slot i of the serving coordinator.
func (c *NetCluster) dial(i int, algo SiteAlgo) error {
	s, err := DialNetSiteRetry(c.coord.Addr(), i, algo, c.cfg.DialTimeout)
	if err != nil {
		return err
	}
	if c.cfg.Heartbeat > 0 {
		s.StartHeartbeats(c.cfg.Heartbeat)
	}
	c.sites[i], c.algos[i], c.dialed = s, algo, append(c.dialed, s)
	return nil
}

func (c *NetCluster) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Step completes every armed takeover whose verdict stands, then hands u
// to its site, or to the backlog while the site or coordinator is down.
func (c *NetCluster) Step(u stream.Update) {
	c.takeovers(0)
	if c.coordDown || c.crashed[u.Site] {
		c.backlog.hold(u)
		return
	}
	c.sites[u.Site].Update(u)
}

// takeovers dials each armed replacement in, announces it and replays its
// slot's backlog once the serving coordinator declares the slot dead and
// the verdict has outlived the two beacon periods after the kill in which
// a heartbeat already in flight can rescind it (the replacement would then
// register as no takeover). It waits up to wait for each verdict; a
// nonzero wait that runs out is an error.
func (c *NetCluster) takeovers(wait time.Duration) {
	deadline := time.Now().Add(wait)
	for i, algo := range c.repl {
		for algo != nil && !c.coordDown && c.err == nil {
			if time.Since(c.killedAt[i]) >= 2*c.cfg.Heartbeat && c.coord.SiteDead(i) {
				if err := c.dial(i, algo); err != nil {
					c.fail(err)
					break
				}
				c.repl[i], c.crashed[i] = nil, false
				if t, ok := algo.(SiteTakeover); ok {
					c.sites[i].Inject(t.OnTakeover)
				}
				if n := c.replay(i); c.OnTakeover != nil {
					c.OnTakeover(i, n)
				}
				break
			}
			if !time.Now().Before(deadline) {
				if wait > 0 {
					c.fail(fmt.Errorf("dist: detector never declared site %d dead", i))
				}
				break
			}
			time.Sleep(c.cfg.Heartbeat)
		}
	}
}

// replay feeds slot i's backlog to its connection and returns its length.
func (c *NetCluster) replay(i int) int {
	q := c.backlog.take(i)
	for _, u := range q {
		c.sites[i].Update(u)
	}
	return len(q)
}

// CrashSite kills site i's process: its connection closes and its updates
// are held. repl, when non-nil, takes the slot over at the first Step after
// the detector's verdict on it stands, or at Flush, which waits for it.
// Without failure detection a lost connection is a transport error, not a
// fault, so CrashSite needs NetConfig.Heartbeat.
func (c *NetCluster) CrashSite(i int, repl SiteAlgo) {
	if c.cfg.Heartbeat <= 0 {
		panic("dist: NetCluster.CrashSite needs failure detection (NetConfig.Heartbeat > 0)")
	}
	if !c.crashed[i] {
		c.sites[i].Close()
		c.crashed[i], c.killedAt[i], c.repl[i] = true, time.Now(), repl
	}
}

// CrashCoord kills the coordinator process. The sites outlive it but not
// their connections, so all updates are held until CoordTakeover.
func (c *NetCluster) CrashCoord() {
	if !c.coordDown {
		c.fail(c.coord.Close())
		for _, s := range c.sites {
			s.Close()
		}
		c.coordDown = true
	}
}

// CoordTakeover brings algo — typically restored from a snapshot — up as
// the standby coordinator on a fresh port with the next epoch. Every live
// site re-dials, so the standby's announce is the first frame it receives,
// and replays what it held; crashed slots wait for the standby's verdict.
// It returns how many sites re-dialed and how many updates they replayed.
func (c *NetCluster) CoordTakeover(algo CoordAlgo) (redialed, replayed int, err error) {
	if !c.coordDown {
		return 0, 0, nil
	}
	if err := c.listen(algo); err != nil {
		c.fail(err)
		return 0, 0, err
	}
	c.coordDown = false
	for i := range c.sites {
		if !c.crashed[i] {
			redialed, replayed = redialed+1, replayed+c.replay(i)
		}
	}
	return redialed, replayed, nil
}

// Flush completes every armed takeover (waiting up to 10s for each
// verdict) and Settles: AsyncSim.Flush's counterpart for a run's end.
func (c *NetCluster) Flush() error {
	c.takeovers(10 * time.Second)
	return c.Settle()
}

// Settle runs barrier rounds over every live connection until two in a
// row leave Stats().WithoutLiveness() unchanged. One unchanged round is no
// proof: a site's reply can be written behind its own barrier frame and
// land after the ack, though before that site's next ack. It returns the
// first transport error the deployment has seen.
func (c *NetCluster) Settle() error {
	if c.coordDown || c.err != nil {
		return c.err
	}
	prev := c.coord.Stats().WithoutLiveness()
	for round, stable := 0, 0; stable < 2; round++ {
		if round == 64 {
			c.fail(errors.New("dist: network still active after 64 barrier rounds"))
			return c.err
		}
		for i, s := range c.sites {
			if !c.crashed[i] {
				c.fail(s.Barrier())
			}
		}
		if c.err != nil {
			return c.err
		}
		if cur := c.coord.Stats().WithoutLiveness(); cur == prev {
			stable++
		} else {
			stable, prev = 0, cur
		}
	}
	c.fail(c.coord.Err())
	return c.err
}

// WithSite runs fn on site i's algorithm behind a barrier, under the
// site's lock — or directly while its connection is down.
func (c *NetCluster) WithSite(i int, fn func(SiteAlgo)) error {
	algo := c.algos[i]
	if c.coordDown || c.crashed[i] {
		fn(algo)
		return nil
	}
	if err := c.sites[i].Barrier(); err != nil {
		return err
	}
	c.sites[i].Inject(func(Outbox) { fn(algo) })
	return nil
}

// Inject runs fn with the serving coordinator's outbox under its lock.
func (c *NetCluster) Inject(fn func(Outbox)) { c.coord.Inject(fn) }

// Estimate returns the serving coordinator's estimate.
func (c *NetCluster) Estimate() int64 { return c.coord.Estimate() }

// Addr returns the serving coordinator's address.
func (c *NetCluster) Addr() string { return c.coord.Addr() }

// SetClassifier installs per-class attribution on every incarnation.
func (c *NetCluster) SetClassifier(cl Classifier) { c.class = cl; c.coord.SetClassifier(cl) }

// SetEventSink installs an event tracer on every incarnation.
func (c *NetCluster) SetEventSink(sink EventSink) { c.sink = sink; c.coord.SetEventSink(sink) }

// Stats merges every incarnation's counters and every connection's beacons.
func (c *NetCluster) Stats() (s Stats) {
	for _, co := range c.coords {
		s.Merge(co.Stats())
	}
	for _, site := range c.dialed {
		s.HeartbeatsSent += site.Stats().HeartbeatsSent
	}
	return s
}

// ClassStats merges every coordinator incarnation's per-class counters.
func (c *NetCluster) ClassStats() (table []Stats) {
	for _, co := range c.coords {
		for i, s := range co.ClassStats() {
			if i == len(table) {
				table = append(table, Stats{})
			}
			table[i].Merge(s)
		}
	}
	return table
}

// Crashed reports whether site's process is dead and not yet replaced.
func (c *NetCluster) Crashed(site int) bool { return c.crashed[site] }

// Suspected reports the serving coordinator's verdict on site.
func (c *NetCluster) Suspected(site int) bool { return !c.coordDown && c.coord.SiteDead(site) }

// CoordCrashed reports whether the coordinator is down.
func (c *NetCluster) CoordCrashed() bool { return c.coordDown }

// BacklogLen returns the number of updates held for site.
func (c *NetCluster) BacklogLen(site int) int { return len(c.backlog[site]) }

// Close shuts every connection and coordinator incarnation down.
func (c *NetCluster) Close() {
	for _, s := range c.dialed {
		s.Close()
	}
	for _, co := range c.coords {
		co.Close()
	}
}
