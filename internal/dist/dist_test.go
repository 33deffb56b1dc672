package dist_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/stream"
	"repro/internal/track"
)

func TestMsgWireRoundTrip(t *testing.T) {
	cases := []dist.Msg{
		{},
		{Kind: dist.KindNewBlock, Site: dist.CoordID, A: 7, B: -1234},
		{Kind: dist.KindDriftReport, Site: 3, A: -9, B: 1},
		{Kind: dist.KindFreqReport, Site: 12, Item: 0xDEADBEEFCAFEF00D, A: 1 << 40},
		{Kind: dist.KindFreqEnd, Site: 0, Item: ^uint64(0), A: -(1 << 62), B: 1 << 62},
		{Kind: dist.KindCountReport, Site: 1<<31 - 1, A: 1},
		{Kind: dist.KindValueReport, Site: 0, A: -1},
		{Kind: dist.KindStateRequest, Site: dist.CoordID},
		{Kind: dist.KindStateReply, Site: 5, A: 42, B: -42},
	}
	for _, m := range cases {
		b := dist.EncodeMsg(m)
		if len(b) != dist.MsgSize {
			t.Fatalf("frame size %d != MsgSize %d", len(b), dist.MsgSize)
		}
		if got := dist.DecodeMsg(b); got != m {
			t.Errorf("round trip: got %+v, want %+v", got, m)
		}
	}
}

// echoSite forwards every ±1 update as a drift report; echoCoord sums them
// and bounces one ack per report back to the sender. A minimal algorithm
// pair with traffic in both directions, for accounting tests.
type echoSite struct {
	id  int32
	d   int64
	got int64 // coordinator messages received
}

func (s *echoSite) OnUpdate(u stream.Update, out dist.Outbox) {
	s.d += u.Delta
	out.Send(dist.Msg{Kind: dist.KindDriftReport, Site: s.id, A: s.d})
}

func (s *echoSite) OnMessage(m dist.Msg, out dist.Outbox) { s.got++ }

type echoCoord struct{ f int64 }

func (c *echoCoord) OnMessage(m dist.Msg, out dist.Outbox) {
	c.f = m.A
	out.SendTo(int(m.Site), dist.Msg{Kind: dist.KindNewBlock, Site: dist.CoordID, A: 0})
}

func (c *echoCoord) Estimate() int64 { return c.f }

func TestSimStatsByteAccounting(t *testing.T) {
	coord := &echoCoord{}
	sites := []dist.SiteAlgo{&echoSite{id: 0}, &echoSite{id: 1}}
	sim := dist.NewSim(coord, sites)
	const n = 100
	for i := 1; i <= n; i++ {
		sim.Step(stream.Update{T: int64(i), Site: i % 2, Delta: 1})
	}
	st := sim.Stats()
	if st.SiteToCoord != n {
		t.Errorf("SiteToCoord = %d, want %d", st.SiteToCoord, n)
	}
	if st.CoordToSite != n {
		t.Errorf("CoordToSite = %d, want %d (one ack per report)", st.CoordToSite, n)
	}
	if st.Total() != st.SiteToCoord+st.CoordToSite {
		t.Errorf("Total() = %d, want %d", st.Total(), st.SiteToCoord+st.CoordToSite)
	}
	if st.Bytes != st.Total()*dist.MsgSize {
		t.Errorf("Bytes = %d, want Total()*MsgSize = %d", st.Bytes, st.Total()*dist.MsgSize)
	}
	if st.CompactBits <= 0 || st.CompactBits >= st.Bytes*8 {
		t.Errorf("CompactBits = %d out of range (0, %d)", st.CompactBits, st.Bytes*8)
	}
}

func TestSimBroadcastCountsPerRecipient(t *testing.T) {
	// A coordinator broadcast to k sites must count k messages (the §3.1
	// accounting used by bound.PartitionMessages).
	k := 5
	coord, sites := track.NewDeterministic(k, 0.1)
	sim := dist.NewSim(coord, sites)
	var toSites int64
	sim.Recorder = func(e dist.TranscriptEntry) {
		if e.To != dist.CoordID {
			toSites++
		}
	}
	st := stream.NewAssign(stream.Monotone(2000), stream.NewRoundRobin(k))
	for {
		u, ok := st.Next()
		if !ok {
			break
		}
		sim.Step(u)
	}
	if toSites == 0 {
		t.Fatal("no coordinator->site traffic recorded")
	}
	if got := sim.Stats().CoordToSite; got != toSites {
		t.Errorf("CoordToSite = %d, recorder saw %d", got, toSites)
	}
	if toSites%int64(k) != 0 {
		t.Errorf("downstream messages %d not a multiple of k=%d (broadcasts must count per recipient)", toSites, k)
	}
}

// TestSimTCPEquivalence runs the same deterministic tracker over the same
// assigned stream on the synchronous simulator and over loopback TCP. With
// the transport settled to quiescence after every update (NetCluster.Settle
// runs barrier rounds until two in a row change nothing: the partitioner's
// count report -> state request -> state reply -> new-block cascade is
// several legs deep, and a site's reply can lag a round behind its own
// barrier), estimates must agree at every step and the message, byte, and
// compact-bit accounting must agree exactly at the end.
func TestSimTCPEquivalence(t *testing.T) {
	k, eps := 3, 0.1
	n := int64(1500)
	ups := stream.Collect(stream.NewAssign(stream.BiasedWalk(n, 0.25, 11), stream.NewRoundRobin(k)))

	simCoord, simSites := track.NewDeterministic(k, eps)
	sim := dist.NewSim(simCoord, simSites)

	netAlgo, netSiteAlgos := track.NewDeterministic(k, eps)
	cl, err := dist.NewNetCluster(netAlgo, netSiteAlgos, dist.NetConfig{})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	defer cl.Close()

	for _, u := range ups {
		sim.Step(u)
		cl.Step(u)
		if err := cl.Settle(); err != nil {
			t.Fatalf("settle at t=%d: %v", u.T, err)
		}
		if se, ne := sim.Estimate(), cl.Estimate(); se != ne {
			t.Fatalf("estimates diverge at t=%d: sim %d, tcp %d", u.T, se, ne)
		}
	}

	if ss, ns := sim.Stats(), cl.Stats(); ss != ns {
		t.Errorf("stats diverge: sim %+v, tcp %+v", ss, ns)
	}
}

func TestNetNoDeadlockUnderUnbarrieredLoad(t *testing.T) {
	// A chatty coordinator (one downstream reply per upstream report)
	// driven hard with no intermediate barriers must not deadlock on full
	// socket buffers: the coordinator never blocks on a send while
	// holding its processing mutex.
	coordAlgo := &echoCoord{}
	siteAlgo := &echoSite{id: 0}
	coord, err := dist.ListenCoordinator("127.0.0.1:0", 1, coordAlgo)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	site, err := dist.DialNetSite(coord.Addr(), 0, siteAlgo)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer site.Close()

	const n = 100_000
	for i := 1; i <= n; i++ {
		site.Update(stream.Update{T: int64(i), Site: 0, Delta: 1})
	}
	for round := 0; round < 2; round++ {
		if err := site.Barrier(); err != nil {
			t.Fatalf("barrier: %v", err)
		}
	}
	if got := coord.Estimate(); got != n {
		t.Errorf("estimate = %d, want %d", got, n)
	}
	if siteAlgo.got != n {
		t.Errorf("site processed %d replies, want %d", siteAlgo.got, n)
	}
}

func TestStrayConnectionDoesNotStealSiteSlot(t *testing.T) {
	// A non-protocol connection (port scan, health check) must neither
	// consume the site slot nor poison the coordinator's error state.
	coordAlgo := &echoCoord{}
	coord, err := dist.ListenCoordinator("127.0.0.1:0", 1, coordAlgo)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()

	stray, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatalf("stray dial: %v", err)
	}
	if _, err := stray.Write([]byte("GET / HTTP/1.0\r\n\r\n garbage to fill a frame....")); err != nil {
		t.Fatalf("stray write: %v", err)
	}
	stray.Close()

	siteAlgo := &echoSite{id: 0}
	site, err := dist.DialNetSite(coord.Addr(), 0, siteAlgo)
	if err != nil {
		t.Fatalf("dial after stray: %v", err)
	}
	defer site.Close()
	site.Update(stream.Update{T: 1, Site: 0, Delta: 1})
	if err := site.Barrier(); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	if got := coord.Estimate(); got != 1 {
		t.Errorf("estimate = %d, want 1", got)
	}
	if err := coord.Err(); err != nil {
		t.Errorf("stray connection poisoned coordinator: %v", err)
	}
}

// routeCoord records the routing field of every message it is handed.
type routeCoord struct {
	mu    sync.Mutex
	sites []int32
}

func (c *routeCoord) OnMessage(m dist.Msg, out dist.Outbox) {
	c.mu.Lock()
	c.sites = append(c.sites, m.Site)
	c.mu.Unlock()
}

func (c *routeCoord) Estimate() int64 { return 0 }

func TestCoordinatorRetiresMisroutedSiteFrame(t *testing.T) {
	// A site frame whose routing field does not name the connection's slot
	// — negative, or another slot modulo k — is malformed: it must never
	// reach the algorithm (a BlockCoord indexes its per-site books by it),
	// and the connection is retired exactly like a read error. Legit
	// traffic, tagged for another query (virtual node q·k+slot) or not,
	// passes the check.
	const k = 2
	for _, bad := range []int32{-1, 1, 3, -1 << 31} {
		algo := &routeCoord{}
		coord, err := dist.ListenCoordinator("127.0.0.1:0", k, algo)
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		conn, err := net.Dial("tcp", coord.Addr())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		var frames []byte
		for _, m := range []dist.Msg{
			{Kind: dist.KindHello, Site: 0},
			{Kind: dist.KindCountReport, Site: 0, A: 1},
			{Kind: dist.KindCountReport, Site: k, A: 1}, // query 1, slot 0
			{Kind: dist.KindStateReply, Site: bad},
			{Kind: dist.KindCountReport, Site: 0, A: 1}, // never read
		} {
			b := dist.EncodeMsg(m)
			frames = append(frames, b[:]...)
		}
		if _, err := conn.Write(frames); err != nil {
			t.Fatalf("write: %v", err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, dist.MsgSize)); err == nil {
			t.Errorf("site %d: coordinator kept the connection after a misrouted frame", bad)
		}
		conn.Close()
		if coord.Err() == nil {
			t.Errorf("site %d: misrouted frame not surfaced as a transport error", bad)
		}
		coord.Close()
		algo.mu.Lock()
		if got := algo.sites; len(got) != 2 || got[0] != 0 || got[1] != k {
			t.Errorf("site %d: algorithm saw routing fields %v, want [0 %d]", bad, got, k)
		}
		algo.mu.Unlock()
	}
}

func TestNetSiteBarrierFlushesExactly(t *testing.T) {
	// One echo round trip per update: after a barrier pair, the site must
	// have received every ack.
	coordAlgo := &echoCoord{}
	siteAlgo := &echoSite{id: 0}
	coord, err := dist.ListenCoordinator("127.0.0.1:0", 1, coordAlgo)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer coord.Close()
	site, err := dist.DialNetSite(coord.Addr(), 0, siteAlgo)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer site.Close()

	const n = 50
	for i := 1; i <= n; i++ {
		site.Update(stream.Update{T: int64(i), Site: 0, Delta: 1})
	}
	for round := 0; round < 2; round++ {
		if err := site.Barrier(); err != nil {
			t.Fatalf("barrier: %v", err)
		}
	}
	if siteAlgo.got != n {
		t.Errorf("site processed %d acks, want %d", siteAlgo.got, n)
	}
	if got := coord.Estimate(); got != n {
		t.Errorf("estimate = %d, want %d", got, n)
	}
	st := coord.Stats()
	if st.SiteToCoord != n || st.CoordToSite != n {
		t.Errorf("stats = %+v, want %d each way", st, n)
	}
	if st.Bytes != st.Total()*dist.MsgSize {
		t.Errorf("wire bytes %d != Total*MsgSize %d", st.Bytes, st.Total()*dist.MsgSize)
	}
}
