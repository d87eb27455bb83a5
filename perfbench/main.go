// Command perfbench is the repository benchmark. It starts a real
// core.Platform in this process on loopback sockets, with file-backed
// journals, drives it with one of four seeded open-loop workloads, checks
// the workload's outputs, and prints every metric by name with its unit.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload push --seed 1 --seconds 20 --trace 0
//
// Workloads are push, hls, admission and simday (RATIONALE.md says what each
// loads and bypasses). With --trace 0 the result carries the end-to-end
// metrics; with --trace 1 the workload runs once untraced and once with spans
// recorded around the benchmark's own calls into each layer, and the result
// carries the per-layer metrics plus the tracing overhead. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The exit code is 0 only when every check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares; main_test.go keeps the two in step.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"g2g_p50_ms", "ms"},
	{"g2g_p90_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"maxrss_mb", "MB"},
}

var perLayer = []metricDef{
	{"rtmp.send_us_p50", "us"},
	{"rtmp.send_us_p99", "us"},
	{"rtmp.push_us_p50", "us"},
	{"rtmp.frames_in", "count"},
	{"rtmp.frames_out", "count"},
	{"rtmp.evictions", "count"},
	{"origin.ingest_us_p50", "us"},
	{"origin.ingest_us_p99", "us"},
	{"origin.chunks_sealed", "count"},
	{"journal.origin.append_ms_p50", "ms"},
	{"journal.origin.append_ms_p99", "ms"},
	{"journal.origin.busy_frac", "ratio"},
	{"journal.control.append_ms_p50", "ms"},
	{"journal.control.append_ms_p99", "ms"},
	{"journal.control.busy_frac", "ratio"},
	{"journal.records_per_batch", "count"},
	{"journal.bytes_per_op", "B"},
	{"edge.upstream_list_us_p50", "us"},
	{"edge.upstream_chunk_us_p50", "us"},
	{"edge.hit_ratio", "ratio"},
	{"edge.sheds", "count"},
	{"edge.stale_serves", "count"},
	{"hls.list_us_p50", "us"},
	{"hls.list_us_p99", "us"},
	{"hls.chunk_us_p50", "us"},
	{"hls.chunk_us_p99", "us"},
	{"hls.not_modified_ratio", "ratio"},
	{"hls.chunk_mb_per_s", "MB/s"},
	{"hls.retries", "count"},
	{"control.join_us_p50", "us"},
	{"control.join_us_p99", "us"},
	{"control.resolve_us_p50", "us"},
	{"control.start_us_p50", "us"},
	{"control.end_us_p50", "us"},
	{"control.rejected_4xx", "count"},
	{"control.rejected_5xx", "count"},
	{"pubsub.publish_us_p50", "us"},
	{"pubsub.publish_us_p99", "us"},
	{"pubsub.publishes", "count"},
	{"viewersim.events", "count"},
	{"viewersim.views", "count"},
	{"viewersim.polls", "count"},
	{"viewersim.allocs_per_event", "count"},
	{"viewersim.events_per_s_1shard", "1/s"},
	{"viewersim.shard_speedup", "ratio"},
	{"go.allocs_per_op", "count"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cpu_frac", "ratio"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead.setup_s", "s"},
	{"trace.overhead.ops_per_s", "1/s"},
	{"trace.overhead.lat_p50_ms", "ms"},
	{"trace.overhead.lat_p90_ms", "ms"},
	{"trace.overhead.g2g_p50_ms", "ms"},
	{"trace.overhead.g2g_p90_ms", "ms"},
	{"trace.overhead.cpu_us_per_op", "us"},
	{"trace.overhead.maxrss_mb", "MB"},
}

// options is one invocation of a workload.
type options struct {
	workload string
	seed     uint64
	seconds  int
	dir      string // work directory for journals and span files
	size     sizes
	faults   faults
}

// faults are deliberate defects the self-tests inject to prove the
// correctness checks can fail. The zero value injects nothing.
type faults struct {
	dropFrame bool // push: the publisher skips one frame
	dropChunk bool // hls: one viewer's player loses one downloaded chunk
}

// result is one workload run: its op counts, correctness verdict and
// metrics. Per-layer numbers are filled only by traced runs.
type result struct {
	attempted, failed int64
	violations        []string
	e2e               map[string]float64
	layer             map[string]float64
	// samples counts the latency observations behind lat_* and g2g_*.
	latN, g2gN int
	notes      []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// violate records a failed correctness check; only the first few are kept
// verbatim.
func (r *result) violate(format string, args ...interface{}) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	} else if len(r.violations) == 20 {
		r.violations = append(r.violations, "further violations elided")
	}
}

func (r *result) correct() bool { return len(r.violations) == 0 && r.failed == 0 }

var workloads = map[string]func(options, *tracer) (*result, error){
	"push":      runPush,
	"hls":       runHLS,
	"admission": runAdmission,
	"simday":    runSimday,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "push, hls, admission or simday")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 15, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "work directory for journals and span files")
	flag.Parse()
	if _, ok := workloads[o.workload]; !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload push|hls|admission|simday --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	o.size = fullSize
	res, err := run(o, trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

// run executes one invocation and prints its report; the last line written
// to out is the JSON result.
func run(o options, traced bool, out io.Writer) (*result, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	abs, err := filepath.Abs(o.dir)
	if err != nil {
		return nil, err
	}
	o.dir = abs
	host := hostRecord(o)
	fmt.Fprintf(out, "host %s\n", mustJSON(host))

	fn := workloads[o.workload]
	res, err := fn(o, nil)
	if err != nil {
		return nil, err
	}
	if res.attempted == 0 {
		res.violate("no operation attempted")
	}
	if traced {
		tr := newTracer()
		tres, err := fn(o, tr)
		if err != nil {
			return nil, err
		}
		for _, m := range endToEnd {
			tres.layer["trace.overhead."+m.name] = tres.e2e[m.name] - res.e2e[m.name]
		}
		path := filepath.Join(o.dir, "trace", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans %d written to %s\n", len(tr.spans), path)
		for _, line := range tr.table() {
			fmt.Fprintln(out, "span", line)
		}
		// Correctness must hold in both passes.
		tres.attempted += res.attempted
		tres.failed += res.failed
		tres.violations = append(res.violations, tres.violations...)
		res = tres
	}
	printReport(out, res, traced)
	return res, nil
}

// printReport prints the human-readable lines and, last, the JSON result:
// the end-to-end metrics, or with traced the per-layer ones.
func printReport(out io.Writer, res *result, traced bool) {
	report, values := endToEnd, res.e2e
	if traced {
		report, values = perLayer, res.layer
	}
	for _, n := range res.notes {
		fmt.Fprintln(out, "note", n)
	}
	for _, m := range endToEnd {
		extra := ""
		switch {
		case strings.HasPrefix(m.name, "lat_"):
			extra = fmt.Sprintf(" (n=%d)", res.latN)
		case strings.HasPrefix(m.name, "g2g_"):
			extra = fmt.Sprintf(" (n=%d)", res.g2gN)
		}
		fmt.Fprintf(out, "e2e %-14s %14.6g %-5s%s\n", m.name, res.e2e[m.name], m.unit, extra)
	}
	// p99 does not hold steady across runs on a small shared host, so it
	// is printed for the reader but not judged (RATIONALE.md).
	for _, n := range []string{"lat_p99_ms", "g2g_p99_ms"} {
		fmt.Fprintf(out, "e2e %-14s %14.6g %-5s (not judged)\n", n, res.e2e[n], "ms")
	}
	failedFrac := float64(res.failed) / float64(max(res.attempted, 1))
	fmt.Fprintf(out, "e2e %-14s %14.6g %-5s (%d of %d ops)\n", "failed_frac", failedFrac, "ratio", res.failed, res.attempted)
	if traced {
		for _, m := range perLayer {
			fmt.Fprintf(out, "layer %-32s %14.6g %s\n", m.name, values[m.name], m.unit)
		}
	}
	for _, v := range res.violations {
		fmt.Fprintln(out, "VIOLATION", v)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(report))
	for _, m := range report {
		metrics[m.name] = value{values[m.name], m.unit}
	}
	fmt.Fprintln(out, mustJSON(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), max(res.attempted, 1), res.failed, metrics}))
}

func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are encoded
	}
	return string(b)
}

// seconds converts a duration to float seconds, the unit every helper
// below works in before scaling to the metric's unit.
func seconds(d time.Duration) float64 { return d.Seconds() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
