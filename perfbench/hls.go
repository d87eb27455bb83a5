package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdn"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/media"
	"repro/internal/resilience"
	"repro/internal/rng"
)

// hlsBroadcast is one broadcast ingested in-process through its origin.
type hlsBroadcast struct {
	id     string
	origin *cdn.Origin
	enc    *media.Encoder
	next   time.Time // capture time of the first frame after set-up
}

// hlsViewer is one polling HLS player.
type hlsViewer struct {
	b       int // broadcast index
	client  *hls.Client
	phase   time.Duration
	have    uint64   // chunklist version held, for conditional polls
	started bool     // the first list has been seen
	next    uint64   // next chunk sequence the player needs
	held    []uint64 // chunk sequences the player holds, in arrival order
	dropAt  int      // fault injection: lose the chunk that would be held[dropAt]
}

type hlsEnv struct {
	*env
	bs      []*hlsBroadcast
	viewers []*hlsViewer
	hcs     []*http.Client
}

func (he *hlsEnv) close() {
	for _, hc := range he.hcs {
		hc.CloseIdleConnections()
	}
	he.env.close()
}

// hls: hlsBroadcasts broadcasts at 25 fps ingested in-process with seeded
// start phases, and hlsViewers viewers polling their nearest edge every
// pollEvery at seeded phases, over one keep-alive connection per worker.
// An op is one viewer poll, including its chunk downloads.
func runHLS(o options, tr *tracer) (*result, error) {
	ctx := context.Background()
	sz := o.size
	perChunk := media.FramesPerChunk(sz.chunkDur)
	src := rng.New(o.seed)
	origins, edges := geo.WowzaSites(), geo.FastlySites()
	var retries atomic.Int64
	retry := resilience.Policy{Sleep: func(ctx context.Context, d time.Duration) error {
		retries.Add(1)
		return resilience.SleepCtx(ctx, d)
	}}

	setup := func() (*hlsEnv, error) {
		e, err := startEnv(ctx, o, tr)
		if err != nil {
			return nil, err
		}
		he := &hlsEnv{env: e}
		for w := 0; w < workers; w++ {
			he.hcs = append(he.hcs, workerClient())
		}
		now := time.Now()
		// Broadcasters and viewers are dealt round-robin over a seeded
		// shuffle of the origin and edge sites, so every seed loads the
		// sites evenly and seeds differ in which sites pair up.
		bsrc := src.Split("broadcasts")
		operm := bsrc.Perm(len(origins))
		for i := 0; i < sz.hlsBroadcasts; i++ {
			site := origins[operm[i%len(origins)]]
			g, err := e.keyed.StartBroadcast(ctx, e.user, site.Location)
			if err != nil {
				he.close()
				return nil, fmt.Errorf("start broadcast: %w", err)
			}
			o, ok := e.p.OriginFor(g.BroadcastID)
			if !ok {
				he.close()
				return nil, fmt.Errorf("broadcast %s has no origin", g.BroadcastID)
			}
			// Backfill two sealed chunks plus a partial one, so every
			// player finds a chunk on its first poll. The partial chunk's
			// length is stratified with seeded jitter: chunk boundaries of
			// the broadcasts spread evenly over a chunk duration.
			backfill := 2*perChunk + int((float64(i)+bsrc.Float64())/float64(sz.hlsBroadcasts)*float64(perChunk))
			b := &hlsBroadcast{
				id:     g.BroadcastID,
				origin: o,
				enc:    media.NewEncoder(media.EncoderConfig{}, bsrc.Split(fmt.Sprint(i))),
				next:   now.Add(-time.Duration(backfill) * media.FrameDuration),
			}
			for b.next.Before(now) {
				b.origin.Ingest(b.id, b.enc.Next(b.next), time.Now())
				b.next = b.next.Add(media.FrameDuration)
			}
			he.bs = append(he.bs, b)
		}
		vsrc := src.Split("viewers")
		eperm := vsrc.Perm(len(edges))
		warmed := map[string]bool{}
		for i := 0; i < sz.hlsViewers; i++ {
			b := i % len(he.bs)
			site := edges[eperm[i%len(edges)]]
			base, err := e.p.Ctrl.ResolveEdge(he.bs[b].id, site.Location)
			if err != nil {
				he.close()
				return nil, fmt.Errorf("resolve edge: %w", err)
			}
			v := &hlsViewer{
				b: b,
				// Poll phases are stratified with seeded jitter, so polls
				// spread evenly over the period whatever the seed.
				phase:  time.Duration((float64(i) + vsrc.Float64()) / float64(sz.hlsViewers) * float64(sz.pollEvery)),
				client: &hls.Client{BaseURL: base, HTTPClient: he.hcs[i%workers], Retry: retry},
				dropAt: -1,
			}
			he.viewers = append(he.viewers, v)
			// Warm-up: every edge that serves a viewer pulls the
			// broadcast once, and every worker connection is opened.
			if key := base + he.bs[b].id; !warmed[key] {
				warmed[key] = true
				if _, err := v.client.FetchChunkList(ctx, he.bs[b].id, 0); err != nil {
					he.close()
					return nil, fmt.Errorf("warm-up poll: %w", err)
				}
			}
		}
		for w := 0; w < workers && w < len(he.viewers); w++ {
			if _, err := he.viewers[w].client.FetchChunkList(ctx, he.bs[he.viewers[w].b].id, 0); err != nil {
				he.close()
				return nil, fmt.Errorf("warm-up poll: %w", err)
			}
		}
		return he, nil
	}
	he, setupS, err := setupMedian(sz.setups, setup, (*hlsEnv).close)
	if err != nil {
		return nil, err
	}
	defer he.close()
	if o.faults.dropChunk {
		he.viewers[0].dropAt = 1
	}

	r := newResult()
	r.e2e["setup_s"] = setupS
	window := time.Duration(o.seconds) * time.Second

	tr.reset()
	retries.Store(0)
	snap0 := he.p.Metrics().Snapshot()
	w := beginWindow()
	t0 := w.start
	end := t0.Add(window)
	// Glass-to-glass samples come from chunks whose first frame was
	// captured early enough that even the slowest player (a chunk
	// duration plus a poll period later) fetches them inside the window;
	// later chunks would only count when fetched early, biasing g2g low.
	g2gFrom, g2gTo := t0, end.Add(-sz.chunkDur-sz.pollEvery)

	// Each worker owns every workers-th viewer and broadcast, and runs its
	// share of frames and polls in due order.
	type event struct {
		due    time.Time
		viewer int // -1 for a frame of broadcast b
		b      int
	}
	tallies := make([]hlsTally, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		var evs []event
		for bi := wk; bi < len(he.bs); bi += workers {
			for t := he.bs[bi].next; t.Before(end); t = t.Add(media.FrameDuration) {
				evs = append(evs, event{due: t, viewer: -1, b: bi})
			}
		}
		for vi := wk; vi < len(he.viewers); vi += workers {
			for t := t0.Add(he.viewers[vi].phase); t.Before(end); t = t.Add(sz.pollEvery) {
				evs = append(evs, event{due: t, viewer: vi})
			}
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].due.Before(evs[j].due) })
		wg.Add(1)
		go func(wk int, evs []event) {
			defer wg.Done()
			ty := &tallies[wk]
			for i, ev := range evs {
				if d := time.Until(ev.due); d > 0 {
					time.Sleep(d)
				}
				ty.late = append(ty.late, time.Since(ev.due))
				if ev.viewer < 0 {
					b := he.bs[ev.b]
					f := b.enc.Next(ev.due)
					sp := tr.begin("origin.ingest", 0, 0, b.id)
					b.origin.Ingest(b.id, f, time.Now())
					sp.end()
					continue
				}
				op := uint64(wk)<<40 | uint64(i)
				v := he.viewers[ev.viewer]
				ty.polls++
				if err := pollOnce(ctx, tr, op, he.bs[v.b].id, v, perChunk, g2gFrom, g2gTo, ty); err != nil {
					ty.failed++
					if len(ty.violations) < 10 {
						ty.violations = append(ty.violations, fmt.Sprintf("viewer %d: %v", ev.viewer, err))
					}
				}
				done := time.Now()
				ty.lat = append(ty.lat, sample{ev.due.Sub(t0), done.Sub(ev.due)})
				tr.root("hls.poll", op, ev.due, done)
			}
		}(wk, evs)
	}
	wg.Wait()
	w.end()
	snap1 := he.p.Metrics().Snapshot()

	var lat, g2g [][]sample
	var late []time.Duration
	var notModified, chunks, bytes int64
	for _, ty := range tallies {
		lat = append(lat, ty.lat)
		g2g = append(g2g, ty.g2g)
		late = append(late, ty.late...)
		r.attempted += ty.polls
		r.failed += ty.failed
		notModified += ty.notModified
		chunks += ty.chunks
		bytes += ty.bytes
		for _, v := range ty.violations {
			r.violate("%s", v)
		}
	}
	for i, v := range he.viewers {
		if len(v.held) == 0 {
			r.violate("viewer %d holds no chunk", i)
		}
	}
	fillLayers(r, tr, snap0, snap1, w, r.attempted)
	r.setLatency(w, "lat", lat...)
	r.setLatency(w, "g2g", g2g...)
	if r.g2gN == 0 {
		r.violate("no chunk captured inside the window reached a player")
	}
	r.setLateness(late)
	if r.attempted > 0 {
		r.layer["hls.not_modified_ratio"] = float64(notModified) / float64(r.attempted)
	}
	r.layer["hls.chunk_mb_per_s"] = float64(bytes) / 1e6 / seconds(w.wall)
	r.layer["hls.retries"] = float64(retries.Load())
	if req := float64(r.attempted + chunks); req > 0 {
		pulls := counterDelta(snap0, snap1, "cdn_list_pulls_total") + counterDelta(snap0, snap1, "cdn_chunk_pulls_total")
		r.layer["edge.hit_ratio"] = 1 - pulls/req
	}
	return r, nil
}

// hlsTally is what one worker counts; workers merge theirs at the end.
type hlsTally struct {
	lat, g2g            []sample
	late                []time.Duration
	polls, failed       int64
	notModified, chunks int64
	bytes               int64
	violations          []string
}

// pollOnce is one player poll: a conditional chunklist fetch, then every
// chunk the player does not hold yet, in order. Each chunk must follow the
// previous one without a gap and hold perChunk frames in sequence. A chunk
// whose first frame was captured in [from, to) yields one glass-to-glass
// sample: capture of that first frame to the chunk in the player.
func pollOnce(ctx context.Context, tr *tracer, op uint64, id string, v *hlsViewer, perChunk int, from, to time.Time, ty *hlsTally) error {
	sp := tr.begin("hls.list", op, opSpanID(op), id)
	list, err := v.client.FetchChunkList(ctx, id, v.have)
	sp.end()
	if errors.Is(err, hls.ErrNotModified) {
		ty.notModified++
		return nil
	}
	if err != nil {
		return err
	}
	v.have = list.Version
	if !v.started {
		latest, ok := list.Latest()
		if !ok {
			return fmt.Errorf("empty chunklist")
		}
		v.next = latest.Seq // a joining player starts at the live edge
		v.started = true
	}
	for _, ref := range list.Chunks {
		if ref.Seq < v.next {
			continue
		}
		if ref.Seq > v.next {
			return fmt.Errorf("chunk %d rolled out of the list before it was fetched (next in list %d)", v.next, ref.Seq)
		}
		sp := tr.begin("hls.chunk", op, opSpanID(op), id)
		c, err := v.client.FetchChunk(ctx, id, ref.Seq)
		sp.end()
		if err != nil {
			return err
		}
		inPlayer := time.Now()
		if err := checkChunk(c, ref.Seq, perChunk); err != nil {
			return err
		}
		ty.chunks++
		ty.bytes += int64(c.Size())
		v.next++
		if len(v.held) == v.dropAt {
			v.dropAt = -1 // the injected fault: the player loses this chunk
			continue
		}
		if n := len(v.held); n > 0 && v.held[n-1]+1 != c.Seq {
			v.held = append(v.held, c.Seq)
			return fmt.Errorf("player holds chunk %d after %d", c.Seq, v.held[n-1])
		}
		v.held = append(v.held, c.Seq)
		if first := c.FirstCapturedAt(); !first.Before(from) && first.Before(to) {
			ty.g2g = append(ty.g2g, sample{first.Sub(from), inPlayer.Sub(first)})
		}
	}
	return nil
}

// checkChunk verifies a decoded chunk: the requested sequence, perChunk
// frames numbered consecutively from seq*perChunk, and payloads carrying
// the encoder's per-frame byte pattern.
func checkChunk(c *media.Chunk, seq uint64, perChunk int) error {
	if c.Seq != seq || len(c.Frames) != perChunk {
		return fmt.Errorf("chunk %d: got seq %d with %d frames, want %d", seq, c.Seq, len(c.Frames), perChunk)
	}
	for i := range c.Frames {
		f := &c.Frames[i]
		want := seq*uint64(perChunk) + uint64(i)
		if f.Seq != want {
			return fmt.Errorf("chunk %d: frame %d has seq %d, want %d", seq, i, f.Seq, want)
		}
		p := f.Payload
		if n := len(p); n == 0 || p[0] != byte(f.Seq) || p[n-1] != byte(f.Seq+uint64(n-1)) {
			return fmt.Errorf("chunk %d: frame %d payload does not decode", seq, f.Seq)
		}
	}
	return nil
}
