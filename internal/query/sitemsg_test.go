package query_test

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/stream"
)

// discardOutbox drops everything a site sends.
type discardOutbox struct{}

func (discardOutbox) Send(dist.Msg)        {}
func (discardOutbox) SendTo(int, dist.Msg) {}
func (discardOutbox) Broadcast(dist.Msg)   {}

func TestSiteAttachUnknownQueryIgnored(t *testing.T) {
	// An attach announcement for an id the registry does not know is a
	// no-op. Growing the child table toward that id would let one frame
	// allocate up to 2^31 entries, and the nil tail would turn off the
	// Q = 1 fast path.
	specs, err := query.ParseSpecs("det,eps=0.1")
	if err != nil {
		t.Fatal(err)
	}
	eng, sites, err := query.New(3, specs)
	if err != nil {
		t.Fatal(err)
	}
	s := sites[0].(*query.Site)
	for _, qid := range []int{1, 7, 1 << 20} {
		s.OnMessage(dist.Msg{Kind: dist.KindAttach, Site: int32(-(1 + qid))}, discardOutbox{})
		if n := s.NumChildren(); n > eng.NumQueries() {
			t.Fatalf("attach for unknown query %d: %d children, %d queries", qid, n, eng.NumQueries())
		}
	}
}

// hostileSite sends one count report tagged for a query id far past any
// registry on every update: the frame names its own slot modulo k, so the
// TCP coordinator's slot check lets it through.
type hostileSite struct{ site int32 }

func (h hostileSite) OnUpdate(_ stream.Update, out dist.Outbox) {
	out.Send(dist.Msg{Kind: dist.KindCountReport, Site: h.site, A: 1})
}
func (hostileSite) OnMessage(dist.Msg, dist.Outbox) {}

func TestHostileFrameClassBounded(t *testing.T) {
	// One frame tagged for an unregistered query must not grow the TCP
	// coordinator's per-class table: the engine classifies it −1, which the
	// ledger accounts in class 0. Unbounded, a Site near 2^31 ran the
	// coordinator out of memory.
	const k = 2
	specs, err := query.ParseSpecs("det,eps=0.1")
	if err != nil {
		t.Fatal(err)
	}
	eng, _, err := query.New(k, specs)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := dist.ListenCoordinator("127.0.0.1:0", k, eng)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.SetClassifier(eng)
	site, err := dist.DialNetSite(coord.Addr(), 0, hostileSite{site: k * 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	site.Update(stream.Update{T: 1, Delta: 1})
	if err := site.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := coord.Stats().SiteToCoord; got != 1 {
		t.Fatalf("coordinator received %d site messages, want 1", got)
	}
	if n := len(coord.ClassStats()); n > eng.NumQueries() {
		t.Fatalf("one hostile frame grew the per-class table to %d entries, %d queries", n, eng.NumQueries())
	}
}

// FuzzEngineSiteMessage feeds arbitrary coordinator→site frames, interleaved
// with per-update and batched ingest, into one site of a four-query engine
// (one query per tracker family, one of them filtered). Each input byte
// with its low bit set is followed by one raw frame; any other byte is an
// update run. The site must never panic, and its child table must never
// grow past the registry.
func FuzzEngineSiteMessage(f *testing.F) {
	const k, site = 3, 1
	specs, err := query.ParseSpecs("det,eps=0.1;freq,eps=0.2,filter=even;threshold,eps=0.1,tau=300;rand,eps=0.1,seed=3")
	if err != nil {
		f.Fatal(err)
	}
	frame := func(m dist.Msg) []byte {
		b := dist.EncodeMsg(m)
		return append([]byte{1}, b[:]...)
	}
	var seed []byte
	for _, op := range []byte{0, 2, 4, 6, 8, 10, 12, 14} {
		seed = append(seed, op)
	}
	for qid := 0; qid < 4; qid++ {
		seed = append(seed, frame(query.Tag(dist.Msg{Kind: dist.KindStateRequest, Site: dist.CoordID}, qid, k))...)
		seed = append(seed, frame(query.Tag(dist.Msg{Kind: dist.KindNewBlock, Site: dist.CoordID, A: 2, B: 40}, qid, k))...)
		seed = append(seed, 6, 130, 254)
	}
	f.Add(seed)
	f.Add(frame(dist.Msg{Kind: dist.KindDetach, Site: -2}))
	f.Fuzz(func(t *testing.T, in []byte) {
		eng, sites, err := query.New(k, specs)
		if err != nil {
			t.Fatal(err)
		}
		s := sites[site].(*query.Site)
		var out discardOutbox
		var buf [16]stream.Update
		for len(in) > 0 {
			op := in[0]
			in = in[1:]
			if op&1 == 1 && len(in) >= dist.MsgSize {
				var b [dist.MsgSize]byte
				copy(b[:], in)
				in = in[dist.MsgSize:]
				s.OnMessage(dist.DecodeMsg(b), out)
				if n := s.NumChildren(); n > eng.NumQueries() {
					t.Fatalf("child table grew to %d entries over %d queries", n, eng.NumQueries())
				}
				continue
			}
			// An update run of 1+op>>4 updates of item op>>2&3, signed by bit
			// 1; even-length runs go through the batch path.
			run := buf[:1+int(op>>4)]
			for i := range run {
				run[i] = stream.Update{Site: site, Item: uint64(op>>2) & 3, Delta: 1 - 2*int64(op>>1&1)}
			}
			if len(run)%2 == 0 {
				for len(run) > 0 {
					run = run[s.OnUpdateBatch(run, out):]
				}
			} else {
				for _, u := range run {
					s.OnUpdate(u, out)
				}
			}
		}
	})
}
