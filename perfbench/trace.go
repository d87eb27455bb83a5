package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hls"
	"repro/internal/journal"
	"repro/internal/media"
)

// tracer records spans in memory during a traced run and writes them out
// when the run ends. A nil *tracer records nothing, which is how untraced
// runs call the same code.
type tracer struct {
	base time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []spanRec
	// journalBytes counts bytes appended through timedBackend, by site
	// group ("origin" or "control").
	journalBytes map[string]int64
}

// spanRec is one finished span. Spans of one op share Op; spans that cannot
// be tied to an op (journal appends, edge upstream pulls, in-process
// ingest) carry the broadcast ID instead. Times are nanoseconds since the
// tracer started.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     uint64 `json:"op,omitempty"`
	Bcast  string `json:"bcast,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), journalBytes: map[string]int64{}}
}

// opSpanID is the ID of an op's root span. Deriving it from the op lets a
// child recorded on one goroutine name a root another goroutine records.
func opSpanID(op uint64) uint64 { return op | 1<<63 }

// span is an open span; end records it.
type span struct {
	t      *tracer
	rec    spanRec
	startT time.Time
}

// begin opens a span. parent 0 means none.
func (t *tracer) begin(name string, op, parent uint64, bcast string) span {
	if t == nil {
		return span{}
	}
	return span{t: t, startT: time.Now(), rec: spanRec{
		ID: t.next.Add(1), Parent: parent, Name: name, Op: op, Bcast: bcast,
	}}
}

func (s span) end() {
	if s.t == nil {
		return
	}
	s.t.record(s.rec, s.startT, time.Now())
}

// root records an op's root span, from the op's due time to its end.
func (t *tracer) root(name string, op uint64, due, end time.Time) {
	if t == nil {
		return
	}
	t.record(spanRec{ID: opSpanID(op), Name: name, Op: op}, due, end)
}

func (t *tracer) record(r spanRec, start, end time.Time) {
	r.Start = start.Sub(t.base).Nanoseconds()
	r.End = end.Sub(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// spanStats is what a traced run derives per span name.
type spanStats struct {
	count     int
	busy      time.Duration // summed span durations
	self      time.Duration // busy minus the time child spans cover
	durations []time.Duration
}

func (s *spanStats) p(q float64) time.Duration { return pct(s.durations, q) }

// stats groups the recorded spans by name.
func (t *tracer) stats() map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*spanStats{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.count++
		st.busy += d
		st.self += d - covered(s.Start, s.End, children[s.ID])
		st.durations = append(st.durations, d)
	}
	return out
}

// covered is how much of [start,end) the union of the intervals covers.
func covered(start, end int64, iv [][2]int64) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, cur int64
	cur = start
	for _, x := range iv {
		lo, hi := max(x[0], cur), min(x[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return time.Duration(total)
}

// table renders one line per span name: count, busy, self, p50, p99.
func (t *tracer) table() []string {
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{fmt.Sprintf("%-24s %8s %12s %12s %10s %10s", "name", "count", "busy_ms", "self_ms", "p50_us", "p99_us")}
	for _, n := range names {
		s := st[n]
		lines = append(lines, fmt.Sprintf("%-24s %8d %12.3f %12.3f %10.1f %10.1f",
			n, s.count, ms(s.busy), ms(s.self), us(s.p(0.5)), us(s.p(0.99))))
	}
	return lines
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanLayer copies p50/p99 of a span name into per-layer metrics.
func spanLayer(r *result, st map[string]*spanStats, span, metric string, scale func(time.Duration) float64, quantiles ...float64) {
	s := st[span]
	for _, q := range quantiles {
		name := fmt.Sprintf("%s_p%d", metric, int(q*100))
		if s == nil {
			r.layer[name] = 0
			continue
		}
		r.layer[name] = scale(s.p(q))
	}
}

// timedBackend is the journal backend wrapper of traced runs: every group
// commit (one write plus one fsync on the file backend) becomes a
// journal.append span carrying the first record's broadcast ID.
type timedBackend struct {
	journal.Backend
	site string
	tr   *tracer
}

func (b *timedBackend) Append(p []byte) error {
	bcast := ""
	if r, _, err := journal.DecodeRecord(p); err == nil {
		bcast = r.BroadcastID
	}
	sp := b.tr.begin("journal.append."+siteGroup(b.site), 0, 0, bcast)
	err := b.Backend.Append(p)
	sp.end()
	b.tr.mu.Lock()
	b.tr.journalBytes[siteGroup(b.site)] += int64(len(p))
	b.tr.mu.Unlock()
	return err
}

func siteGroup(site string) string {
	if site == "control" {
		return "control"
	}
	return "origin"
}

// timedStore wraps every store an edge pulls from (PlatformConfig.
// WrapUpstream), timing the edge↔origin hop.
type timedStore struct {
	hls.Store
	tr *tracer
}

func (t *tracer) wrapUpstream(s hls.Store) hls.Store { return timedStore{Store: s, tr: t} }

func (s timedStore) ChunkList(ctx context.Context, id string) (*media.ChunkList, error) {
	sp := s.tr.begin("edge.upstream_list", 0, 0, id)
	defer sp.end()
	return s.Store.ChunkList(ctx, id)
}

func (s timedStore) Chunk(ctx context.Context, id string, seq uint64) (*media.Chunk, error) {
	sp := s.tr.begin("edge.upstream_chunk", 0, 0, id)
	defer sp.end()
	return s.Store.Chunk(ctx, id, seq)
}

// journalLayer fills the journal per-layer metrics of a traced window.
func journalLayer(r *result, tr *tracer, st map[string]*spanStats, wall time.Duration, ops int64, appends, batches float64) {
	for _, g := range []string{"origin", "control"} {
		spanLayer(r, st, "journal.append."+g, "journal."+g+".append_ms", ms, 0.5, 0.99)
		busy := 0.0
		if s := st["journal.append."+g]; s != nil {
			busy = seconds(s.busy) / seconds(wall)
		}
		r.layer["journal."+g+".busy_frac"] = busy
	}
	if batches > 0 {
		r.layer["journal.records_per_batch"] = appends / batches
	}
	tr.mu.Lock()
	total := tr.journalBytes["origin"] + tr.journalBytes["control"]
	tr.mu.Unlock()
	r.layer["journal.bytes_per_op"] = float64(total) / float64(max(ops, 1))
}

// reset drops what set-up recorded, so the per-layer numbers cover only
// the measured window.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.journalBytes = map[string]int64{}
	t.mu.Unlock()
}
