package main

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/stream"
)

// The timing wrappers stand in for a SiteAlgo or CoordAlgo inside a
// runtime. Runtimes pick code paths by type assertion (the batch fast path,
// the takeover and rejoin hooks), so a wrapper must implement exactly the
// optional dist interfaces its inner value implements: one that claimed
// OnUpdateBatch for a site without it, or hid OnCoordTakeover, would time a
// different program. The algorithm families of this repository come in
// three site shapes (no optional interface; the batch path only; all three)
// and two coordinator shapes (none; all five), and there is one wrapper
// type per shape. Wrapping any other shape panics rather than time a
// different program. Wrappers implement no snapshot interface, so a
// snapshot is always taken of the inner value.

// tracedOutbox times each send on the lane of the call that made it.
type tracedOutbox struct {
	inner dist.Outbox
	l     *lane
}

func (o *tracedOutbox) Send(m dist.Msg) {
	o.l.begin(lOutbox)
	o.inner.Send(m)
	o.l.end(1)
}

func (o *tracedOutbox) SendTo(site int, m dist.Msg) {
	o.l.begin(lOutbox)
	o.inner.SendTo(site, m)
	o.l.end(1)
}

func (o *tracedOutbox) Broadcast(m dist.Msg) {
	o.l.begin(lOutbox)
	o.inner.Broadcast(m)
	o.l.end(1)
}

// gate is one traced entry point into an algorithm: the lane its calls are
// timed on, and the outbox wrapper the algorithm sends through inside them.
type gate struct{ out tracedOutbox }

// enter opens a span and points the outbox wrapper at the runtime's outbox
// for this call; it returns the previous one for exit to restore, so a
// runtime that re-enters the algorithm from inside a call stays correct.
func (g *gate) enter(out dist.Outbox, ly layer) dist.Outbox {
	prev := g.out.inner
	g.out.inner = out
	g.out.l.begin(ly)
	return prev
}

func (g *gate) exit(prev dist.Outbox, units int64) {
	g.out.l.end(units)
	g.out.inner = prev
}

// siteWrap times a SiteAlgo with no optional interface. Updates are timed
// on upd and coordinator messages on msg: on Sim and AsyncSim both are the
// driving goroutine's lane, on TCP the generator's and the site reader's.
type siteWrap struct {
	inner    dist.SiteAlgo
	upd, msg gate
}

func (w *siteWrap) OnUpdate(u stream.Update, out dist.Outbox) {
	p := w.upd.enter(out, lSiteUpd)
	w.inner.OnUpdate(u, &w.upd.out)
	w.upd.exit(p, 1)
}

func (w *siteWrap) OnMessage(m dist.Msg, out dist.Outbox) {
	w.msg.out.l.kinds[m.Kind]++
	p := w.msg.enter(out, lSiteMsg)
	w.inner.OnMessage(m, &w.msg.out)
	w.msg.exit(p, 1)
}

// batchSite adds the batch fast path.
type batchSite struct{ *siteWrap }

func (w batchSite) OnUpdateBatch(us []stream.Update, out dist.Outbox) int {
	p := w.upd.enter(out, lSiteUpd)
	n := w.inner.(dist.BatchSiteAlgo).OnUpdateBatch(us, &w.upd.out)
	w.upd.exit(p, int64(n))
	return n
}

// fullSite adds the rejoin and takeover hooks to the batch path.
type fullSite struct{ batchSite }

func (w fullSite) OnRejoin(out dist.Outbox) {
	p := w.msg.enter(out, lSiteCtl)
	w.inner.(dist.SiteRejoiner).OnRejoin(&w.msg.out)
	w.msg.exit(p, 1)
}

func (w fullSite) OnTakeover(out dist.Outbox) {
	p := w.msg.enter(out, lSiteCtl)
	w.inner.(dist.SiteTakeover).OnTakeover(&w.msg.out)
	w.msg.exit(p, 1)
}

// wrapSite returns a traced stand-in for inner with inner's optional
// interfaces, timing updates on upd and messages and hooks on msg.
func wrapSite(inner dist.SiteAlgo, upd, msg *lane) dist.SiteAlgo {
	w := &siteWrap{inner: inner, upd: gate{tracedOutbox{l: upd}}, msg: gate{tracedOutbox{l: msg}}}
	_, b := inner.(dist.BatchSiteAlgo)
	_, r := inner.(dist.SiteRejoiner)
	_, t := inner.(dist.SiteTakeover)
	switch {
	case !b && !r && !t:
		return w
	case b && !r && !t:
		return batchSite{w}
	case b && r && t:
		return fullSite{batchSite{w}}
	}
	panic(fmt.Sprintf("bench: no timing wrapper for the optional interfaces of %T", inner))
}

// coordWrap times a CoordAlgo with no optional interface; every call is on
// one lane.
type coordWrap struct {
	inner dist.CoordAlgo
	g     gate
}

func (w *coordWrap) OnMessage(m dist.Msg, out dist.Outbox) {
	w.g.out.l.kinds[m.Kind]++
	p := w.g.enter(out, lCoordMsg)
	w.inner.OnMessage(m, &w.g.out)
	w.g.exit(p, 1)
}

// Estimate is a read, timed by the poll that makes it.
func (w *coordWrap) Estimate() int64 { return w.inner.Estimate() }

// fullCoord adds every coordinator hook: rejoin, site death and recovery,
// site takeover, and standby takeover.
type fullCoord struct{ *coordWrap }

func (w fullCoord) OnSiteRejoin(site int, out dist.Outbox) {
	p := w.g.enter(out, lCoordCtl)
	w.inner.(dist.CoordRejoiner).OnSiteRejoin(site, &w.g.out)
	w.g.exit(p, 1)
}

func (w fullCoord) OnSiteDead(site int, out dist.Outbox) {
	p := w.g.enter(out, lCoordCtl)
	w.inner.(dist.CoordFailureHandler).OnSiteDead(site, &w.g.out)
	w.g.exit(p, 1)
}

func (w fullCoord) OnSiteAlive(site int, out dist.Outbox) {
	p := w.g.enter(out, lCoordCtl)
	w.inner.(dist.CoordRecoverHandler).OnSiteAlive(site, &w.g.out)
	w.g.exit(p, 1)
}

func (w fullCoord) OnSiteTakeover(site int, out dist.Outbox) {
	p := w.g.enter(out, lCoordCtl)
	w.inner.(dist.CoordTakeoverHandler).OnSiteTakeover(site, &w.g.out)
	w.g.exit(p, 1)
}

func (w fullCoord) OnCoordTakeover(site int, epoch int64, out dist.Outbox) {
	p := w.g.enter(out, lCoordCtl)
	w.inner.(dist.CoordTakeover).OnCoordTakeover(site, epoch, &w.g.out)
	w.g.exit(p, 1)
}

// wrapCoord returns a traced stand-in for inner with inner's optional
// interfaces, timing every call on l.
func wrapCoord(inner dist.CoordAlgo, l *lane) dist.CoordAlgo {
	w := &coordWrap{inner: inner, g: gate{tracedOutbox{l: l}}}
	_, a := inner.(dist.CoordRejoiner)
	_, b := inner.(dist.CoordFailureHandler)
	_, c := inner.(dist.CoordRecoverHandler)
	_, d := inner.(dist.CoordTakeoverHandler)
	_, e := inner.(dist.CoordTakeover)
	switch {
	case !a && !b && !c && !d && !e:
		return w
	case a && b && c && d && e:
		return fullCoord{w}
	}
	panic(fmt.Sprintf("bench: no timing wrapper for the optional interfaces of %T", inner))
}
