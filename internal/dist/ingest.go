package dist

import "repro/internal/stream"

// ingest is AsyncSim's site-ingest core, on the lane and on the event
// queue alike. The runtime keeps its own rules: how far one feed may
// reach, the token that says when quiet budgets go stale, and the network
// the captured sends then travel through.
type ingest struct {
	sites []SiteAlgo
	// slots is each site's fast-path state. The first feed (probe) builds
	// it and asserts the sites' capabilities, so building a deployment
	// costs neither; ReplaceSite makes the next feed assert them again.
	slots []ingestSlot
	fed   []SiteAlgo // what a feed calls: the site, or a heldSite
	mode  ingestMode
	// synced is the token the quiet budgets were last read under; −1
	// matches no token.
	synced  int64
	touched []int   // sites with absorbed updates pending in a quiet pass
	out     capture // what the fed sites sent
	// backlog holds the updates of held slots (crashed sites) for replay
	// into their next incarnation; the runtime builds it with its network.
	backlog backlog
}

// ingestSlot is one site's ingest state.
type ingestSlot struct {
	batch BatchSiteAlgo // the site if it is batch-capable, else nil
	quiet QuietSiteAlgo // the site if it is quiet-capable, else nil

	// In a quiet pass: the cost the site can still absorb (−1 when stale,
	// so the next update takes OnUpdate), the updates absorbed but not yet
	// applied and their net change, and whether the site is on touched.
	budget int64
	n, sum int64
	listed bool
	// held marks a dead slot: probe gives it a heldSite.
	held bool
}

// heldSite stands in for a held slot's site in a feed: what it is fed goes
// to the backlog, and its budget reads −1. No feed loop branches on held:
// the branch alone cost sim-volatile, which never holds a slot, ~3% on a
// 2-vCPU Xeon.
type heldSite struct{ b *backlog }

func (h heldSite) OnUpdate(u stream.Update, _ Outbox) { h.b.hold(u) }
func (heldSite) OnMessage(Msg, Outbox)                {}
func (heldSite) Quiet() int64                         { return -1 }
func (heldSite) Absorb(n, sum int64)                  {}

// ingestMode selects the feed loop.
type ingestMode uint8

const (
	ingestUnprobed ingestMode = iota // no feed since the runtime was built or a site replaced
	ingestPlain                      // some site is not quiet: per-update and run path
	ingestQuiet                      // every site is quiet: absorb message-free stretches
)

// maxSiteRun caps the same-site run scan in feed; quietFeed is the
// shortest feed, in updates per site, that takes the quiet pass.
const maxSiteRun, quietFeed = 64, 4

// capture buffers what a fed site sends: on the site side every send goes
// to the coordinator, so only the message is kept.
type capture struct{ msgs []Msg }

// Send implements Outbox field by field: a whole-struct copy of the spilled
// argument reloads it wider than it was stored and stalls store forwarding.
func (c *capture) Send(m Msg) {
	c.msgs = append(c.msgs, Msg{})
	p := &c.msgs[len(c.msgs)-1]
	p.Kind, p.Site, p.Item, p.A, p.B = m.Kind, m.Site, m.Item, m.A, m.B
}

func (c *capture) SendTo(_ int, m Msg) { c.Send(m) }
func (c *capture) Broadcast(m Msg)     { c.Send(m) }

// probe asserts each site's fast paths and picks the quiet loop when every
// site is quiet.
func (c *ingest) probe() {
	if c.slots == nil {
		c.slots = make([]ingestSlot, len(c.sites))
	}
	if c.fed == nil {
		c.fed = make([]SiteAlgo, len(c.sites))
	}
	quiet := true
	for i, site := range c.sites {
		sl := &c.slots[i]
		sl.batch, _ = site.(BatchSiteAlgo)
		sl.quiet, _ = site.(QuietSiteAlgo)
		quiet = quiet && sl.quiet != nil && sl.quiet.Quiet() >= 0
		c.fed[i] = site
		if sl.held {
			h := heldSite{&c.backlog}
			c.fed[i], sl.batch, sl.quiet = h, nil, h
		}
	}
	c.mode = ingestPlain
	if quiet {
		// synced = −1 leaves every budget to be read by the first pass.
		c.mode, c.synced = ingestQuiet, -1
		if c.touched == nil {
			c.touched = make([]int, 0, len(c.sites))
		}
	}
}

// hold marks site's slot dead: the next feed probes a heldSite into it.
// The slots may not exist yet, since no feed may have run.
func (c *ingest) hold(site int) {
	if c.slots == nil {
		c.slots = make([]ingestSlot, len(c.sites))
	}
	c.slots[site].held, c.mode = true, ingestUnprobed
}

// ReplaceSite swaps site's algorithm in place with no protocol traffic,
// for the snapshot property tests: the caller guarantees the replacement's
// state is identical to the old algorithm's (track.RestoreSite), so the
// swap is unobservable.
func (c *ingest) ReplaceSite(site int, algo SiteAlgo) {
	c.sites[site] = algo
	c.mode = ingestUnprobed
}

// step is the per-update path: u goes to its site with the runtime's
// outbox, or to the backlog when its slot is held.
//
//varlint:zeroalloc
func (c *ingest) step(u stream.Update, out Outbox) {
	if c.slots != nil && c.slots[u.Site].held {
		c.backlog.hold(u)
		return
	}
	c.sites[u.Site].OnUpdate(u, out)
	c.synced = -1
}

// feed feeds us to the sites in order, up to and including the first
// update whose site sent (c.out then holds its messages), and returns how
// many it fed, or −1 if a BatchSiteAlgo consumed nothing. No absorbed run
// is left pending. The runtime's token moves whenever a site may have
// changed outside a feed, which makes every quiet budget stale.
//
//varlint:zeroalloc
func (c *ingest) feed(us []stream.Update, token int64) int {
	if c.mode != ingestPlain {
		if c.mode == ingestUnprobed {
			c.probe()
		}
		if c.mode == ingestQuiet {
			// Shorter feeds (AsyncSim's, cut at its next event) absorb too
			// little to repay the budget reads and Absorb calls.
			if len(us) >= quietFeed*len(c.slots) {
				return c.quietPass(us, token)
			}
			c.synced = -1
		}
	}
	i := 0
	for i < len(us) && len(c.out.msgs) == 0 {
		u := us[i]
		sl := &c.slots[u.Site]
		// Capped: a run that sends is consumed over several calls, and an
		// uncapped scan would re-walk it each time.
		j := i + 1
		if sl.batch != nil {
			for jmax := min(i+maxSiteRun, len(us)); j < jmax && us[j].Site == u.Site; {
				j++
			}
		}
		if j == i+1 {
			// Single-update runs (round-robin assignment interleaves sites)
			// skip the batch machinery.
			c.fed[u.Site].OnUpdate(u, &c.out)
			i++
		} else if n := sl.batch.OnUpdateBatch(us[i:j], &c.out); n > 0 {
			i += n
		} else {
			return -1
		}
	}
	return i
}

// quietPass is feed over quiet sites. An update within its site's budget
// is only counted into the site's pending run. Any other goes through
// OnUpdate, after the site absorbs its pending run; if it sent nothing,
// the budget is re-read. Budgets go stale (−1) for the site that sent and,
// when the token moved or sites were fed outside a pass, for all; a stale
// budget is re-read only after an update sent nothing, so a pass costs
// O(sites touched) and a site that sends on every update reads none.
//
//varlint:zeroalloc
func (c *ingest) quietPass(us []stream.Update, token int64) int {
	if c.synced != token {
		for i := range c.slots {
			c.slots[i].budget = -1
		}
		c.synced = token
	}
	for i, u := range us {
		sl := &c.slots[u.Site]
		// max(1, |Δ|): a zero delta still counts towards the count reports.
		if cost := max(u.Delta, -u.Delta, 1); sl.budget >= cost {
			sl.budget -= cost
			sl.n++
			sl.sum += u.Delta
			if !sl.listed {
				sl.listed = true
				c.touched = append(c.touched, u.Site)
			}
			continue
		}
		if sl.n > 0 {
			sl.quiet.Absorb(sl.n, sl.sum)
			sl.n, sl.sum = 0, 0
		}
		sl.quiet.OnUpdate(u, &c.out)
		if len(c.out.msgs) == 0 {
			sl.budget = sl.quiet.Quiet()
			continue
		}
		sl.budget = -1
		us = us[:i+1] // the pass ends with this update
		break
	}
	if len(c.touched) > 0 {
		c.absorb()
	}
	return len(us)
}

// absorb applies every touched site's pending run, one Absorb call each.
//
//varlint:zeroalloc
func (c *ingest) absorb() {
	for _, i := range c.touched {
		sl := &c.slots[i]
		if sl.n > 0 {
			sl.quiet.Absorb(sl.n, sl.sum)
		}
		sl.n, sl.sum, sl.listed = 0, 0, false
	}
	c.touched = c.touched[:0]
}
