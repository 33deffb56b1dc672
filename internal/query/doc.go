// Package query is the multi-tenant monitoring engine: it multiplexes Q
// concurrent tracking queries — different aggregates, ε's, tracker
// families, and item filters — over one shared site topology and one shared
// runtime (dist.AsyncSim, its NewSim lane, or TCP), where the naive
// deployment would run Q coordinators, Q×k sockets, and Q passes over the
// stream.
//
// # Architecture
//
// A query is a child pair built by the ordinary tracker constructors
// (track.NewDeterministic, track.NewRandomized, freq.New,
// track.NewThresholdMonitor). Every family is the §3.1 block partitioner,
// so the children are concrete: one *track.BlockCoord and k
// *track.BlockSite, whose protocol, fault and snapshot hooks the engine
// calls directly. query.Coord and query.Site implement dist.CoordAlgo and
// dist.SiteAlgo by demultiplexing onto those children: every update fans
// out to each attached child whose filter accepts it (a quiet det-family
// child only counts an update its send budget covers), and every message a
// child emits is tagged with its query id before it enters the runtime.
//
// # The mux tag
//
// The tag lives inside the Msg.Site routing field, so the wire frame stays
// exactly dist.MsgSize bytes and every frame is attributable to exactly one
// query: query q's site i appears as virtual node q·k+i, and query q's
// coordinator as node −(1+q). Query 0 is therefore tagged identically to a
// standalone deployment — with Q = 1 the engine's transcript, estimates,
// and compact-bit accounting are byte-identical to running the child alone,
// the anchor property pinned by TestEngineQ1ByteIdentical. Per-query cost
// splits out of the aggregate through dist.Classifier (Coord implements
// it); the compact-bit overhead of tagging for q > 0 is the mux overhead
// experiment E28 measures.
//
// # Attach and detach
//
// Queries attach and detach mid-stream. Coord.Attach (run through the
// runtime's Inject hook, the stand-in for a control-plane API) broadcasts a
// KindAttach announcement; a site receiving it builds its child and pushes
// its pre-attach history — net mass, update count, and per-item counts the
// engine's spine retains — through track.BlockSite.BootstrapAttach's resync
// machinery, which reuses the PR-4 rejoin reports (absolute drift, B = ±2
// exact resync, KindFreqEnd) and then triggers a state collection, so one
// round-trip after attach the query sits at an exact block boundary.
// Announcements are idempotent and re-sent by Coord.OnSiteRejoin, so a
// partitioned site that missed an attach converges on rejoin. Query specs
// themselves travel out of band (the shared Engine registry): the data
// plane carries only the qid tag, as a production control plane would
// distribute configuration.
package query
