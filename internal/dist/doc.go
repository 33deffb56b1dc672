// Package dist is the distributed-monitoring runtime beneath every tracker
// in this repository: the message contract, the algorithm interfaces, a
// deterministic simulator that runs the synchronous model and injects
// faults, and a real TCP transport. The same CoordAlgo/SiteAlgo pair runs
// unchanged on both runtimes.
//
// # Model
//
// The network is the paper's star topology: k sites, each holding a shard
// of the update stream, and one coordinator that must maintain an estimate
// f̂(n) of the tracked aggregate at all times. Sites never talk to each
// other directly; every message either flows site→coordinator or
// coordinator→site(s). A broadcast to k sites is accounted as k messages,
// matching the §3.1 cost accounting (k requests + k replies + k broadcast
// per block).
//
// # Interfaces
//
// A tracking algorithm is a pair:
//
//   - SiteAlgo reacts to local stream updates (OnUpdate) and to
//     coordinator messages (OnMessage), emitting messages through an
//     Outbox.
//   - CoordAlgo reacts to site messages (OnMessage) and must be able to
//     produce the current estimate (Estimate) at any quiescent point.
//
// The Outbox abstracts the direction of travel: Send at a site delivers to
// the coordinator; Send or Broadcast at the coordinator delivers to every
// site; SendTo addresses one site.
//
// # Simulator
//
// AsyncSim is a discrete-event scheduler on a virtual clock; a NetModel
// shapes each delivery's latency, order and loss, and Schedule* calls
// inject partitions and crash faults. NewSim builds it under the zero
// model, the synchronous one: Step delivers the update to its site, then
// every message triggered (transitively) by the update is delivered, in
// FIFO order, before Step returns. This realizes the paper's synchronous
// model in which the per-step guarantee |f(n) − f̂(n)| ≤ ε·|f(n)| is
// stated. There the runtime delivers on its lane, a ring buffer, until the
// first Schedule* call builds the event queue; both paths share one
// delivery, and the queue reproduces the lane byte for byte. The runtime
// counts every delivered message in Stats and exposes a Recorder hook that
// observes the full transcript — the appendix-D replay construction
// (lowerbound.TranscriptSummary) is built on it.
//
// # TCP transport
//
// ListenCoordinator and DialNetSite run the identical algorithms over real
// sockets, one Msg per fixed MsgSize-byte frame (kind:1, site:4, item:8,
// a:8, b:8, big-endian), so Stats.Bytes equals true wire volume. Delivery
// is asynchronous; NetSite.Barrier flushes one round trip both ways.
// NetCluster is the live deployment over them, with AsyncSim's fault
// machinery, and Settle runs barrier rounds to quiescence. Transport-
// internal frames (handshake, barrier, acknowledgement, heartbeat) use
// reserved kinds and are never delivered to algorithms nor counted.
//
// # Accounting
//
// Stats tracks messages by direction (SiteToCoord, CoordToSite), wire
// bytes (MsgSize per message), and CompactBits — the same messages priced
// in the paper's O(log n + log f) bit model via a varint encoding.
package dist
