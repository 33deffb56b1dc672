package expt

import (
	"reflect"

	"repro/internal/dist"
	"repro/internal/query"
	"repro/internal/stream"
)

// Experiment E30: the engine's batch entry point. query.Site.OnUpdateBatch
// is the engine's per-update fan-out in a loop that stops right after the
// first update that sends, so batching saves the runtime's per-update
// dispatch into the site, not work inside the children (the quiet children
// absorb on either drive). Wall-clock numbers live in BENCH_pr6.json and
// EXPERIMENTS.md (they depend on the machine); this table sticks to
// deterministic proxies so it renders byte-identically on every run and
// worker count: site entry calls measure how far the batched drive
// amortizes dispatch, and the identity column pins the contract that
// batching changes cost only, never behavior.

// countingSite wraps an engine site and counts entry calls — one per
// OnUpdate or OnUpdateBatch invocation — the deterministic proxy for the
// dispatch overhead the batch path amortizes. It forwards the batch
// interface so StepBatch still sees a BatchSiteAlgo through the wrap.
type countingSite struct {
	inner   dist.SiteAlgo
	batch   dist.BatchSiteAlgo
	entries *int64
}

func (c *countingSite) OnUpdate(u stream.Update, out dist.Outbox) {
	*c.entries++
	c.inner.OnUpdate(u, out)
}

func (c *countingSite) OnMessage(m dist.Msg, out dist.Outbox) {
	c.inner.OnMessage(m, out)
}

func (c *countingSite) OnUpdateBatch(us []stream.Update, out dist.Outbox) int {
	*c.entries++
	return c.batch.OnUpdateBatch(us, out)
}

// e30End is the end state of one drive, compared across the two paths.
type e30End struct {
	stats dist.Stats
	class []dist.Stats
	ests  []int64
}

// E30EngineBatch drives the same Q-query mix through the engine twice —
// per-update Step and batched StepBatch — under round-robin and skewed
// site assignments, and reports the dispatch amortization (updates per
// site entry call) next to the end-state identity check. Round-robin
// interleaves sites into runs of length one, so the batched drive falls
// back to the per-update bypass (avg run 1.0): the fast path engages
// exactly when the stream actually contains same-site runs, and costs
// nothing when it does not.
func E30EngineBatch(cfg Config) *Table {
	t := NewTable("E30", "engine batch fast path: dispatch amortization, batched ↔ per-update identity",
		"Q", "assign", "updates", "entries(step)", "entries(batch)", "avg run", "identical")
	const k = 8
	n := cfg.scale(60_000)
	buf := make([]stream.Update, 256)

	assigns := []struct {
		name string
		mk   func() stream.Assigner
	}{
		{"roundrobin", func() stream.Assigner { return stream.NewRoundRobin(k) }},
		{"zipf(2.0)", func() stream.Assigner { return stream.NewSkewed(k, 2.0, cfg.Seed+17) }},
	}

	drive := func(q int, mk func() stream.Assigner, batched bool) (int64, e30End) {
		eng, esites, err := query.New(k, e28Mix(q, cfg.Seed+200))
		if err != nil {
			panic(err)
		}
		var entries int64
		wrapped := make([]dist.SiteAlgo, len(esites))
		for i, s := range esites {
			wrapped[i] = &countingSite{inner: s, batch: s.(dist.BatchSiteAlgo), entries: &entries}
		}
		sim := dist.NewSim(eng, wrapped)
		sim.SetClassifier(eng)
		st := stream.NewAssign(stream.NewItemGen(n, 512, 1.2, 0.2, cfg.Seed+3), mk())
		if batched {
			sim.RunBatch(st, buf, 0, nil)
		} else {
			sim.Run(st)
		}
		ests := make([]int64, q)
		for qi := range ests {
			ests[qi], _ = eng.EstimateQuery(qi)
		}
		return entries, e30End{stats: sim.Stats(), class: sim.ClassStats(), ests: ests}
	}

	for _, q := range []int{1, 4, 8} {
		for _, a := range assigns {
			stepEntries, stepEnd := drive(q, a.mk, false)
			batchEntries, batchEnd := drive(q, a.mk, true)
			t.AddStats(stepEnd.stats)
			t.AddStats(batchEnd.stats)
			identical := stepEnd.stats == batchEnd.stats &&
				reflect.DeepEqual(stepEnd.class, batchEnd.class) &&
				reflect.DeepEqual(stepEnd.ests, batchEnd.ests)
			t.AddRow(di(q), a.name, d(n), d(stepEntries), d(batchEntries),
				f1(float64(n)/float64(batchEntries)), b(identical))
		}
	}
	t.AddNote("entries counts site entry calls (OnUpdate or OnUpdateBatch); the per-update drive pays one per update,")
	t.AddNote("the batched drive one per same-site run — capped by the runtime's run scan (64) and cut short at sends.")
	t.AddNote("identical=true: aggregate Stats, per-query Stats, and every per-query estimate match across the drives.")
	return t
}
