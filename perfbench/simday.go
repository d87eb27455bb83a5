package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/viewersim"
)

// simday: viewersim.Run of one seeded simulated day at scale 1:simScale on
// the wheel engine with its default shard count (one per CPU), repeated
// with the same seed for the whole window. An op is one simulated event;
// its latency is its day's wall time divided by the day's events, so
// lat_* and g2g_* are quantiles over the days of the window.
func runSimday(o options, tr *tracer) (*result, error) {
	cfg := viewersim.Config{
		Seed:        o.seed,
		Scale:       o.size.simScale,
		DayFraction: o.size.simFraction,
		Engine:      "wheel",
	}
	// Set-up is world build, engine start and the first 1% of a day. It
	// uses a fixed seed: how much happens in the first minutes of a day
	// varies from seed to seed far more than the set-up cost does.
	warm := cfg
	warm.Seed = 1
	warm.DayFraction = cfg.DayFraction / 100
	_, setupS, err := setupMedian(o.size.setups, func() (*viewersim.Summary, error) {
		return viewersim.Run(warm)
	}, func(*viewersim.Summary) {})
	if err != nil {
		return nil, fmt.Errorf("simday set-up: %w", err)
	}

	r := newResult()
	r.e2e["setup_s"] = setupS
	window := time.Duration(o.seconds) * time.Second
	var days []time.Duration
	var perEvent []float64 // ms
	var first string
	var last *viewersim.Summary

	tr.reset()
	w := beginWindow()
	// At least two days, so the determinism check has a repeat; then as
	// many more as fit in the window.
	for len(days) < 2 || time.Since(w.start)+days[len(days)-1] <= window {
		sp := tr.begin("viewersim.day", uint64(len(days)+1), 0, "")
		start := time.Now()
		sum, err := viewersim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("simday: %w", err)
		}
		days = append(days, time.Since(start))
		sp.end()
		perEvent = append(perEvent, ms(days[len(days)-1])/float64(max(sum.Events, 1)))
		r.attempted += sum.Events
		if d := summaryDigest(sum); first == "" {
			first = d
		} else if d != first {
			r.violate("day %d summary digest %s differs from the first day's %s", len(days), d, first)
		}
		if !checkSummary(r, sum) {
			r.failed += sum.Events
		}
		last = sum
	}
	w.end()
	r.notes = append(r.notes, fmt.Sprintf("simday digest %s over %d days", first, len(days)))

	fillLayers(r, tr, nilSnap, nilSnap, w, r.attempted)
	r.setQuantilesMS("lat", perEvent)
	r.setQuantilesMS("g2g", perEvent)
	r.layer["viewersim.events"] = float64(last.Events)
	r.layer["viewersim.views"] = float64(last.Views)
	r.layer["viewersim.polls"] = float64(last.Polls)
	r.layer["viewersim.allocs_per_event"] = w.allocs / float64(max(r.attempted, 1))
	if tr != nil {
		// The single-thread baseline: the same day on one shard, which
		// must produce the same summary.
		one := cfg
		one.Shards = 1
		sp := tr.begin("viewersim.day_1shard", 0, 0, "")
		start := time.Now()
		sum, err := viewersim.Run(one)
		wall := time.Since(start)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("simday one shard: %w", err)
		}
		if d := summaryDigest(sum); d != first {
			r.violate("one-shard summary digest %s differs from the sharded %s", d, first)
		}
		oneRate := float64(sum.Events) / seconds(wall)
		r.layer["viewersim.events_per_s_1shard"] = oneRate
		r.layer["viewersim.shard_speedup"] = r.e2e["ops_per_s"] / oneRate
	}
	return r, nil
}

// summaryDigest fingerprints a day's printed summary.
func summaryDigest(s *viewersim.Summary) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s.String())))[:16]
}

// checkSummary applies the day's invariants and reports whether they held.
func checkSummary(r *result, s *viewersim.Summary) bool {
	ok := true
	if s.Views != s.RTMPViews+s.HLSViews {
		r.violate("views %d != rtmp %d + hls %d", s.Views, s.RTMPViews, s.HLSViews)
		ok = false
	}
	if s.Events <= 0 {
		r.violate("no simulated events")
		ok = false
	}
	return ok
}
