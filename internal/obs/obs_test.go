package obs_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/rng"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func TestRingEviction(t *testing.T) {
	r := obs.NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(dist.Event{Kind: dist.EvBlock, T: int64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	if r.Evicted() != 6 {
		t.Fatalf("Evicted = %d, want 6", r.Evicted())
	}
	snap := r.Snapshot()
	for i, e := range snap {
		if want := int64(6 + i); e.T != want {
			t.Fatalf("Snapshot[%d].T = %d, want %d (oldest first)", i, e.T, want)
		}
	}
	last := r.Last(2)
	if len(last) != 2 || last[0].T != 8 || last[1].T != 9 {
		t.Fatalf("Last(2) = %+v, want T=8 then T=9", last)
	}
	if got := r.Last(100); len(got) != 4 {
		t.Fatalf("Last(100) returned %d events, want the 4 retained", len(got))
	}
	if got := r.Last(0); len(got) != 0 {
		t.Fatalf("Last(0) returned %d events, want 0", len(got))
	}
}

func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	err := obs.WriteJSONL(&buf, []dist.Event{
		{Kind: dist.EvBlock, T: 12, Now: 34, Site: -1, To: 2, Item: 5, A: 6, B: -7},
		{Kind: dist.EvSiteDead, Site: 3, To: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"block","t":12,"now":34,"site":-1,"to":2,"item":5,"a":6,"b":-7}
{"kind":"site_dead","t":0,"now":0,"site":3,"to":-1,"item":0,"a":0,"b":0}
`
	if buf.String() != want {
		t.Fatalf("JSONL dump:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// goldenMetrics is a fully deterministic registry: fixed Stats, two
// classes, one custom gauge, a degraded health verdict, a ring with known
// occupancy, and no Go runtime gauges.
func goldenMetrics() *obs.Metrics {
	agg := dist.Stats{
		SiteToCoord: 120, CoordToSite: 45, Bytes: 3300, CompactBits: 990,
		Dropped: 7, Retransmitted: 2, StalenessSum: 64, StalenessMax: 9,
		HeartbeatsSent: 80, HeartbeatsRecv: 78, HeartbeatMisses: 2,
		Takeovers: 1, CoordTakeovers: 1, EpochDrops: 3,
	}
	classes := []dist.Stats{
		{SiteToCoord: 100, CoordToSite: 40, Bytes: 3000, CompactBits: 900,
			Dropped: 5, Retransmitted: 2, StalenessSum: 50, StalenessMax: 9},
		{SiteToCoord: 20, CoordToSite: 5, Bytes: 300, CompactBits: 90,
			Dropped: 2, StalenessSum: 14, StalenessMax: 4},
	}
	ring := obs.NewRing(4)
	for i := 0; i < 6; i++ {
		ring.Emit(dist.Event{Kind: dist.EvBlock, T: int64(i)})
	}
	return &obs.Metrics{
		Stats:      func() dist.Stats { return agg },
		Classes:    func() []dist.Stats { return classes },
		ClassLabel: "query",
		Gauges: func(emit func(name, help string, value float64)) {
			emit("virtual_time_ticks", "Simulator virtual clock.", 12345)
		},
		Health: func() obs.Health { return obs.Health{Detail: "site 2 dead"} },
		Ring:   ring,
	}
}

func TestRenderGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenMetrics().Render(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run TestRenderGolden -update` to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("rendered exposition drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
			path, buf.Bytes(), want)
	}
	// Two renders of identical state must be byte-identical (fixed order,
	// no map iteration).
	var again bytes.Buffer
	if err := goldenMetrics().Render(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("two renders of identical state differ")
	}
}

func TestRenderParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenMetrics().Render(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		key := s.Name
		if q := s.Label("query"); q != "" {
			key += "/" + q
		}
		if _, dup := byKey[key]; dup {
			t.Fatalf("duplicate sample %s", key)
		}
		byKey[key] = s.Value
	}
	checks := map[string]float64{
		"varmon_healthy":                              0,
		"varmon_messages_site_to_coord_total":         120,
		"varmon_staleness_max_ticks":                  9,
		"varmon_epoch_drops_total":                    3,
		"varmon_events_total":                         6,
		"varmon_events_retained":                      4,
		"varmon_events_evicted_total":                 2,
		"varmon_virtual_time_ticks":                   12345,
		"varmon_query_messages_site_to_coord_total/0": 100,
		"varmon_query_messages_site_to_coord_total/1": 20,
		"varmon_query_staleness_max_ticks/1":          4,
	}
	for key, want := range checks {
		got, ok := byKey[key]
		if !ok {
			t.Fatalf("sample %s missing from the parsed exposition", key)
		}
		if got != want {
			t.Fatalf("sample %s = %g, want %g", key, got, want)
		}
	}
}

// TestParseLabelEscapes round-trips label values through Render and
// ParseText: escapes, and braces inside the quoted value, which do not end
// the label set.
func TestParseLabelEscapes(t *testing.T) {
	for _, v := range []string{"a\\b\"c\nd", "a}b", "x} 1"} {
		if err := labelRoundTrip(v); err != nil {
			t.Fatal(err)
		}
	}
}

// labelRoundTrip renders per-class samples whose class label is value and
// checks that ParseText reads every one back with that value.
func labelRoundTrip(value string) error {
	m := &obs.Metrics{
		Stats:      func() dist.Stats { return dist.Stats{SiteToCoord: 1} },
		Classes:    func() []dist.Stats { return []dist.Stats{{SiteToCoord: 1}} },
		ClassLabel: "q",
		ClassValue: func(int) string { return value },
	}
	var buf bytes.Buffer
	if err := m.Render(&buf); err != nil {
		return err
	}
	samples, err := obs.ParseText(buf.String())
	if err != nil {
		return fmt.Errorf("label %q: %w", value, err)
	}
	found := 0
	for _, s := range samples {
		if v, ok := s.Labels["q"]; ok {
			found++
			if v != value {
				return fmt.Errorf("label round-trip = %q, want %q", v, value)
			}
		}
	}
	if found == 0 {
		return fmt.Errorf("label %q: no labeled sample survived the round trip", value)
	}
	return nil
}

// FuzzParseText feeds arbitrary text to ParseText, which must never panic,
// and renders an arbitrary class label value, which must parse back
// unchanged.
func FuzzParseText(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(golden), "q0")
	f.Add("m{a=\"x} 1\"} 2\n", "a}b")
	f.Add("m{a=\"\\\"} 1\n", "x} 1")
	f.Add("m{} 1\nm{a=\"b\",} 2\n", "a\\b\"c\nd")
	f.Fuzz(func(t *testing.T, text, value string) {
		_, _ = obs.ParseText(text) // malformed text is an error, never a panic
		if err := labelRoundTrip(value); err != nil {
			t.Fatal(err)
		}
	})
}

// randStats fills one Stats with bounded random counters.
func randStats(src *rng.Xoshiro256) dist.Stats {
	return dist.Stats{
		SiteToCoord: int64(src.Intn(10_000)), CoordToSite: int64(src.Intn(10_000)),
		Bytes: int64(src.Intn(1 << 20)), CompactBits: int64(src.Intn(1 << 20)),
		Dropped: int64(src.Intn(100)), Retransmitted: int64(src.Intn(100)),
		StalenessSum: int64(src.Intn(1 << 16)), StalenessMax: int64(src.Intn(256)),
	}
}

// TestSumInvariantProperty is the exporter half of the per-class
// accounting contract (see TestPerQueryStatsSumProperty in
// internal/query): for any per-class table whose transport-level sums
// equal the aggregate, the RENDERED exposition preserves that — summing a
// per-class family's parsed samples reproduces the aggregate family
// exactly, with staleness_max aggregating as a max.
func TestSumInvariantProperty(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		nc := 1 + src.Intn(6)
		classes := make([]dist.Stats, nc)
		var agg dist.Stats
		for i := range classes {
			classes[i] = randStats(src)
			agg.SiteToCoord += classes[i].SiteToCoord
			agg.CoordToSite += classes[i].CoordToSite
			agg.Bytes += classes[i].Bytes
			agg.CompactBits += classes[i].CompactBits
			agg.Dropped += classes[i].Dropped
			agg.Retransmitted += classes[i].Retransmitted
			agg.StalenessSum += classes[i].StalenessSum
			if classes[i].StalenessMax > agg.StalenessMax {
				agg.StalenessMax = classes[i].StalenessMax
			}
		}
		m := &obs.Metrics{
			Stats:      func() dist.Stats { return agg },
			Classes:    func() []dist.Stats { return classes },
			ClassLabel: "query",
		}
		var buf bytes.Buffer
		if err := m.Render(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := obs.ParseText(buf.String())
		if err != nil {
			t.Fatal(err)
		}
		aggOf := map[string]float64{}
		sumOf := map[string]float64{}
		maxOf := map[string]float64{}
		for _, s := range samples {
			if q := s.Label("query"); q != "" {
				base := strings.TrimPrefix(s.Name, "varmon_query_")
				sumOf[base] += s.Value
				if s.Value > maxOf[base] {
					maxOf[base] = s.Value
				}
			} else {
				aggOf[strings.TrimPrefix(s.Name, "varmon_")] = s.Value
			}
		}
		for base, want := range aggOf {
			if base == "healthy" {
				continue
			}
			got, fold := sumOf[base], "sum"
			if base == "staleness_max_ticks" {
				got, fold = maxOf[base], "max"
			}
			if _, ok := sumOf[base]; !ok {
				t.Fatalf("trial %d: aggregate family %s has no per-query split", trial, base)
			}
			if got != want {
				t.Fatalf("trial %d: per-query %s of %s = %g, aggregate = %g", trial, fold, base, got, want)
			}
		}
	}
}

// TestParseTextRejectsGarbage pins the parser's error paths so a corrupt
// scrape fails loudly instead of yielding silent zeros.
func TestParseTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"varmon_x",
		"varmon_x{a=\"b\" 1",
		"varmon_x{a=b} 1",
		"varmon_x{a=\"b} 1",
		"varmon_x notanumber",
		"{} 1",
	} {
		if _, err := obs.ParseText(bad); err == nil {
			t.Errorf("ParseText(%q) accepted garbage", bad)
		}
	}
	if got, err := obs.ParseText("# HELP x y\n\n# TYPE x counter\n"); err != nil || len(got) != 0 {
		t.Fatalf("comments and blanks should parse to zero samples, got %v, %v", got, err)
	}
}

// TestRenderZeroAlloc pins the scrape's cost for engine-mixed's registry
// shape (aggregate Stats plus eight query classes, no Gauges): after the
// first render has grown the pooled buffer, a render allocates nothing.
func TestRenderZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	agg := dist.Stats{SiteToCoord: 120, CoordToSite: 45, Bytes: 3300}
	classes := make([]dist.Stats, 8)
	for i := range classes {
		classes[i] = dist.Stats{SiteToCoord: int64(100 * i), Bytes: int64(2900 * i), StalenessMax: int64(i)}
	}
	m := &obs.Metrics{
		Stats:      func() dist.Stats { return agg },
		Classes:    func() []dist.Stats { return classes },
		ClassLabel: "query",
	}
	var buf bytes.Buffer
	if err := m.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() {
		buf.Reset()
		_ = m.Render(&buf) // a bytes.Buffer write cannot fail
	}); a != 0 {
		t.Fatalf("Render allocated %v objects per call after warm-up, want 0", a)
	}
}

// TestRenderConcurrent renders one registry from several goroutines at
// once, as concurrent /metrics handlers do: each output must equal the
// golden file, so no two renders share a buffer. Run it under -race.
func TestRenderConcurrent(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	m := goldenMetrics()
	const workers, renders = 4, 50
	errs := make(chan error, workers)
	for range workers {
		go func() {
			var buf bytes.Buffer
			for range renders {
				buf.Reset()
				if err := m.Render(&buf); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf.Bytes(), want) {
					errs <- fmt.Errorf("concurrent render differs from the golden file:\n%s", buf.Bytes())
					return
				}
			}
			errs <- nil
		}()
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
