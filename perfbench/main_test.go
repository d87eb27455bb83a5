package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinySize runs every workload in a few seconds: short chunks and polls so
// players still see several chunks, and a low RTMP limit so admission
// still crosses the RTMP→HLS split.
var tinySize = sizes{
	setups:        2,
	pushFPS:       200,
	hlsBroadcasts: 2,
	hlsViewers:    8,
	pollEvery:     250 * time.Millisecond,
	chunkDur:      400 * time.Millisecond,
	admRate:       200,
	admBroadcasts: 4,
	rtmpLimit:     5,
	simScale:      10000,
	simFraction:   0.05,
}

type report struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at tinySize and returns its printed lines and
// the parsed result line.
func runTiny(t *testing.T, workload string, traced bool, f faults) ([]string, report) {
	t.Helper()
	dir := t.TempDir()
	o := options{workload: workload, seed: 7, seconds: 2, dir: dir, size: tinySize, faults: f}
	out, err := os.Create(filepath.Join(dir, "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if _, err := run(o, traced, out); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if _, err := out.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		t.Fatalf("%s printed nothing", workload)
	}
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, lines[len(lines)-1])
	}
	return lines, r
}

// checkMetrics asserts the result carries exactly the declared metrics with
// their units.
func checkMetrics(t *testing.T, workload string, r report, want []metricDef) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", workload, len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.name)
			continue
		}
		if got.Unit != m.unit {
			t.Errorf("%s: %s unit %q, want %q", workload, m.name, got.Unit, m.unit)
		}
	}
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range []string{"push", "hls", "admission", "simday"} {
		t.Run(w, func(t *testing.T) {
			lines, r := runTiny(t, w, false, faults{})
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", w, r.Correct, r.Failed, r.Attempted, strings.Join(lines, "\n"))
			}
			checkMetrics(t, w, r, endToEnd)
			for _, m := range endToEnd {
				if r.Metrics[m.name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w, m.name, r.Metrics[m.name].Value)
				}
			}
			if !hasLine(lines, "e2e failed_frac") {
				t.Errorf("%s: failed_frac not printed", w)
			}
			if !hasLine(lines, `host {"commit"`) {
				t.Errorf("%s: host record not printed", w)
			}
		})
	}
}

func TestWorkloadsTinyTraced(t *testing.T) {
	// The layers each workload loads must show up in its traced metrics.
	loaded := map[string][]string{
		"push":      {"rtmp.send_us_p50", "rtmp.frames_in", "origin.chunks_sealed", "journal.origin.append_ms_p50"},
		"hls":       {"origin.ingest_us_p50", "hls.list_us_p50", "hls.chunk_us_p50", "edge.hit_ratio", "hls.chunk_mb_per_s"},
		"admission": {"control.join_us_p50", "pubsub.publish_us_p50", "pubsub.publishes", "journal.control.append_ms_p50"},
		"simday":    {"viewersim.events", "viewersim.events_per_s_1shard", "viewersim.shard_speedup"},
	}
	for w, names := range loaded {
		t.Run(w, func(t *testing.T) {
			lines, r := runTiny(t, w, true, faults{})
			if !r.Correct {
				t.Fatalf("%s traced: not correct\n%s", w, strings.Join(lines, "\n"))
			}
			checkMetrics(t, w, r, perLayer)
			for _, n := range names {
				if r.Metrics[n].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w, n, r.Metrics[n].Value)
				}
			}
			if !hasLine(lines, "spans ") {
				t.Errorf("%s: span file not reported", w)
			}
		})
	}
}

// A deliberately dropped frame or chunk must fail the run and show in
// failed_frac.
func TestDroppedOpFails(t *testing.T) {
	cases := []struct {
		workload string
		f        faults
	}{
		{"push", faults{dropFrame: true}},
		{"hls", faults{dropChunk: true}},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			lines, r := runTiny(t, c.workload, false, c.f)
			if r.Correct || r.Failed < 1 {
				t.Fatalf("%s with a dropped op: correct=%v failed=%d\n%s", c.workload, r.Correct, r.Failed, strings.Join(lines, "\n"))
			}
			if !hasLine(lines, "VIOLATION") || lineValue(lines, "e2e failed_frac") <= 0 {
				t.Errorf("%s: the drop is not reported\n%s", c.workload, strings.Join(lines, "\n"))
			}
		})
	}
}

// The metric lists in main.go are the ones BENCHMARK.json declares.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// lineValue is the number after the name on the first line starting with
// prefix, or -1.
func lineValue(lines []string, prefix string) float64 {
	for _, l := range lines {
		if f := strings.Fields(strings.TrimPrefix(l, prefix)); strings.HasPrefix(l, prefix) && len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				return v
			}
		}
	}
	return -1
}

func hasLine(lines []string, prefix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}
