package main

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/journal"
	metricsreg "repro/internal/metrics"
)

// sizes are the workload dimensions. fullSize is what the benchmark
// measures; the self-tests run tinySize.
type sizes struct {
	setups int // set-ups per run; setup_s is their median

	pushFPS int // push: frames per second on the one broadcast

	hlsBroadcasts int           // hls: broadcasts ingested in-process
	hlsViewers    int           // hls: polling viewers, split evenly over broadcasts
	pollEvery     time.Duration // hls: viewer poll period
	chunkDur      time.Duration // push and hls: HLS chunk duration

	admRate       int // admission: requests per second
	admBroadcasts int // admission: live broadcasts joins spread over
	rtmpLimit     int // admission: RTMP viewers per broadcast before HLS

	simScale    float64 // simday: workload divisor
	simFraction float64 // simday: share of the day simulated
}

var fullSize = sizes{
	setups:        5,
	pushFPS:       2000,
	hlsBroadcasts: 8,
	hlsViewers:    1000,
	pollEvery:     2 * time.Second,
	chunkDur:      3 * time.Second,
	admRate:       1000,
	admBroadcasts: 32,
	rtmpLimit:     100,
	simScale:      100,
	simFraction:   1,
}

// workers is the number of load goroutines of every live workload. Each
// owns at most one connection and its own share of the seeded schedule.
var workers = runtime.NumCPU()

// ashburn is where broadcasters and viewers sit unless a workload spreads
// them out.
var ashburn = geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49}

// env is one running platform with a tenant and its API key.
type env struct {
	p       *core.Platform
	dir     string
	files   []*journal.File
	jerr    error
	admin   *control.Client
	keyed   *control.Client
	setupHC *http.Client
	user    uint64
}

// startEnv starts a platform whose journals are files in a fresh directory
// under o.dir, then creates a tenant whose plan is far above anything the
// workload asks for and an API key for it.
func startEnv(ctx context.Context, o options, tr *tracer) (*env, error) {
	dir, err := os.MkdirTemp(o.dir, "journal-")
	if err != nil {
		return nil, fmt.Errorf("journal dir: %w", err)
	}
	e := &env{dir: dir, setupHC: &http.Client{Transport: &http.Transport{}}}
	cfg := core.PlatformConfig{
		ChunkDuration:   o.size.chunkDur,
		RTMPViewerLimit: o.size.rtmpLimit,
		Seed:            o.seed,
		Metrics:         metricsreg.NewRegistry(),
		Journal: func(site string) journal.Backend {
			f, err := journal.OpenFile(filepath.Join(dir, site+".wal"))
			if err != nil {
				e.jerr = err
				return nil
			}
			e.files = append(e.files, f)
			if tr != nil {
				return &timedBackend{Backend: f, site: site, tr: tr}
			}
			return f
		},
	}
	if tr != nil {
		cfg.WrapUpstream = tr.wrapUpstream
	}
	e.p = core.NewPlatform(cfg)
	if e.jerr != nil {
		e.close()
		return nil, fmt.Errorf("open journal: %w", e.jerr)
	}
	if err := e.p.Start(ctx); err != nil {
		e.close()
		return nil, err
	}
	e.admin = &control.Client{BaseURL: e.p.ControlURL(), HTTPClient: e.setupHC}
	t, err := e.admin.CreateTenant(ctx, "bench", control.Plan{
		Name:                    "bench",
		MaxConcurrentBroadcasts: 1 << 20,
		MaxJoinRPS:              1e6,
		DailyBytesQuota:         1 << 50,
	})
	if err == nil {
		var key string
		key, err = e.admin.IssueAPIKey(ctx, t.ID)
		e.keyed = &control.Client{BaseURL: e.admin.BaseURL, HTTPClient: e.setupHC, APIKey: key}
	}
	if err == nil {
		e.user, err = e.admin.Register(ctx, "broadcaster")
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("tenant set-up: %w", err)
	}
	return e, nil
}

func (e *env) close() {
	if e.p != nil {
		e.p.Stop()
	}
	for _, f := range e.files {
		f.Close()
	}
	e.setupHC.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// workerClient is a load goroutine's HTTP client: one keep-alive connection.
func workerClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// setupMedian runs setup n times, tearing down all but the last, and
// returns the last environment with the median set-up time in seconds.
func setupMedian[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var times []float64
	var cur T
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return cur, 0, err
		}
		times = append(times, seconds(time.Since(start)))
		if i < n-1 {
			teardown(v)
			runtime.GC()
		}
		cur = v
	}
	sort.Float64s(times)
	return cur, times[len(times)/2], nil
}

// window measures process CPU, wall time and runtime counters over the
// measured part of a run.
type window struct {
	steal  [2]int64  // host steal and total CPU ticks over the window
	slices []float64 // host steal share of each stealSlice of the window
	stop   chan struct{}
	done   chan struct{}
	start  time.Time
	wall   time.Duration
	cpu    time.Duration
	rt0    [4]metrics.Sample
	allocs float64
	bytes  float64
	gcFrac float64
}

var rtNames = [4]string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() [4]metrics.Sample {
	var s [4]metrics.Sample
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s[:])
	return s
}

func rtValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// stealSlice is how finely the window records the host's CPU steal.
const stealSlice = 500 * time.Millisecond

func beginWindow() *window {
	w := &window{stop: make(chan struct{}), done: make(chan struct{})}
	w.rt0 = readRuntime()
	w.steal = hostTicks()
	w.cpu = cpuTime()
	w.start = time.Now()
	go w.sampleSteal()
	return w
}

// sampleSteal records the host's steal share of each stealSlice until the
// window ends.
func (w *window) sampleSteal() {
	defer close(w.done)
	t := time.NewTicker(stealSlice)
	defer t.Stop()
	prev := w.steal
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
		}
		cur := hostTicks()
		share := 0.0
		if total := cur[1] - prev[1]; total > 0 {
			share = float64(cur[0]-prev[0]) / float64(total)
		}
		w.slices = append(w.slices, share)
		prev = cur
	}
}

// calm reports whether an op due at offset at from the window start falls
// in a slice whose host steal is at most the median slice's. On a quiet
// host every slice qualifies; while the host withholds CPU in bursts, the
// latency figures come from the calmer half of the window, so that they
// describe the program rather than its neighbours on the host.
func (w *window) calm() func(at time.Duration) bool {
	if len(w.slices) == 0 {
		return func(time.Duration) bool { return true }
	}
	limit := pct(append([]float64(nil), w.slices...), 0.5)
	return func(at time.Duration) bool {
		i := min(max(int(at/stealSlice), 0), len(w.slices)-1)
		return w.slices[i] <= limit
	}
}

func (w *window) end() {
	close(w.stop)
	<-w.done
	w.wall = time.Since(w.start)
	w.cpu = cpuTime() - w.cpu
	t := hostTicks()
	w.steal = [2]int64{t[0] - w.steal[0], t[1] - w.steal[1]}
	rt1 := readRuntime()
	w.allocs = rtValue(rt1[0]) - rtValue(w.rt0[0])
	w.bytes = rtValue(rt1[1]) - rtValue(w.rt0[1])
	if total := rtValue(rt1[3]) - rtValue(w.rt0[3]); total > 0 {
		w.gcFrac = (rtValue(rt1[2]) - rtValue(w.rt0[2])) / total
	}
}

// fill sets the end-to-end metrics every workload shares, plus the runtime
// per-layer ones, from a window in which ops operations completed.
func (w *window) fill(r *result, ops int64) {
	n := float64(max(ops, 1))
	r.e2e["ops_per_s"] = float64(ops) / seconds(w.wall)
	r.e2e["cpu_us_per_op"] = us(w.cpu) / n
	r.e2e["maxrss_mb"] = maxRSSMB()
	r.layer["go.allocs_per_op"] = w.allocs / n
	r.layer["go.alloc_bytes_per_op"] = w.bytes / n
	r.layer["go.gc_cpu_frac"] = w.gcFrac
	if w.steal[1] > 0 {
		r.notes = append(r.notes, fmt.Sprintf("host steal %.1f%% of CPU time during the window",
			100*float64(w.steal[0])/float64(w.steal[1])))
	}
}

// hostTicks reads the steal and total CPU ticks of the host from
// /proc/stat; zeros where it is unavailable.
func hostTicks() [2]int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]int64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return [2]int64{}
	}
	var total int64
	for _, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
	}
	steal, _ := strconv.ParseInt(f[8], 10, 64)
	return [2]int64{steal, total}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// pct returns the nearest-rank percentile of d, which it sorts.
func pct[T cmp.Ordered](d []T, p float64) T {
	var zero T
	if len(d) == 0 {
		return zero
	}
	slices.Sort(d)
	i := int(float64(len(d))*p+0.999999) - 1
	return d[max(0, min(i, len(d)-1))]
}

// sample is one op's latency and when the op was due, as an offset from
// the window start.
type sample struct {
	at, d time.Duration
}

// setLatency fills <prefix>_p50_ms, <prefix>_p90_ms and <prefix>_p99_ms
// from latencies measured from each op's due time, over the ops due in the
// window's calm slices.
func (r *result) setLatency(w *window, prefix string, parts ...[]sample) {
	calm := w.calm()
	var v []float64
	n := 0
	for _, part := range parts {
		for _, s := range part {
			n++
			if calm(s.at) {
				v = append(v, ms(s.d))
			}
		}
	}
	r.setQuantilesMS(prefix, v)
	if prefix == "lat" && len(v) < n {
		r.notes = append(r.notes, fmt.Sprintf("latency over the %d of %d ops due in the calmer half of the window", len(v), n))
	}
}

// setQuantilesMS fills <prefix>_p50_ms, _p90_ms and _p99_ms from samples
// in milliseconds.
func (r *result) setQuantilesMS(prefix string, v []float64) {
	for _, q := range []int{50, 90, 99} {
		r.e2e[fmt.Sprintf("%s_p%d_ms", prefix, q)] = pct(v, float64(q)/100)
	}
	if prefix == "lat" {
		r.latN = len(v)
	} else {
		r.g2gN = len(v)
	}
}

// registry deltas ---------------------------------------------------------

func counterSum(s metricsreg.Snapshot, name string) int64 {
	var n int64
	for _, c := range s.Counters {
		if c.Name == name {
			n += c.Value
		}
	}
	return n
}

func counterDelta(a, b metricsreg.Snapshot, name string) float64 {
	return float64(counterSum(b, name) - counterSum(a, name))
}

// histP50 interpolates the median of a registry histogram over the window
// between two snapshots, summing every labelled series of that name.
func histP50(a, b metricsreg.Snapshot, name string) time.Duration {
	type bucket struct {
		le    float64
		count int64
	}
	sum := func(s metricsreg.Snapshot) map[string]int64 {
		m := map[string]int64{}
		for _, h := range s.Histograms {
			if h.Name == name {
				for _, bk := range h.Buckets {
					m[bk.LE] += bk.Count
				}
			}
		}
		return m
	}
	before, after := sum(a), sum(b)
	var bs []bucket
	for le, c := range after {
		v := 1e18
		if le != "+Inf" {
			fmt.Sscanf(le, "%g", &v)
		}
		bs = append(bs, bucket{v, c - before[le]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0
	}
	half := float64(bs[len(bs)-1].count) / 2 // buckets are cumulative
	lo, loCount := 0.0, 0.0
	for _, bk := range bs {
		if float64(bk.count) >= half {
			if bk.le >= 1e18 {
				return time.Duration(lo * 1e9)
			}
			frac := (half - loCount) / (float64(bk.count) - loCount)
			return time.Duration((lo + frac*(bk.le-lo)) * 1e9)
		}
		lo, loCount = bk.le, float64(bk.count)
	}
	return 0
}

// host record -------------------------------------------------------------

type host struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Seed       uint64 `json:"seed"`
	Workload   string `json:"workload"`
	JournalFS  string `json:"journal_fs"`
}

func hostRecord(o options) host {
	h := host{
		Commit:     "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Seed:       o.seed,
		Workload:   o.workload,
		JournalFS:  fsType(o.dir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, where the journals live.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
