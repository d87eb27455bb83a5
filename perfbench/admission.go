package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/geo"
	"repro/internal/pubsub"
	"repro/internal/rng"
)

// admission op kinds and their share of the mix, in percent.
const (
	opJoin = iota
	opPublish
	opResolve
	opChurn
)

var admMix = [...]struct {
	name    string
	percent int
}{
	opJoin:    {"join", 60},
	opPublish: {"publish", 25},
	opResolve: {"resolve", 10},
	opChurn:   {"churn", 5},
}

// edgeSites are the viewer locations re-resolves come from.
var edgeSites = geo.FastlySites()

type admEnv struct {
	*env
	ids []string
	ws  []*admWorker
}

func (ae *admEnv) close() {
	for _, w := range ae.ws {
		w.hc.CloseIdleConnections()
	}
	ae.env.close()
}

// admWorker is one load goroutine with its own connection, op stream and
// tallies.
type admWorker struct {
	id   int
	hc   *http.Client
	ctl  *control.Client
	msg  *pubsub.Client
	src  *rng.Source
	user uint64

	churn      []control.BroadcastGrant // broadcasts this worker started
	grants     map[string][2]int        // broadcast → RTMP, HLS grants seen
	lastHLS    map[string]bool          // an HLS grant was seen for the broadcast
	lat        []sample
	late       []time.Duration
	failed     int64
	rejected4x int64
	rejected5x int64
	violations []string
}

// admission: open-loop requests at admRate over one connection per worker,
// with a seeded mix of key-authenticated joins spread over admBroadcasts
// live broadcasts, heart and comment publishes, edge re-resolves and
// broadcast churn. An op is one request answered.
func runAdmission(o options, tr *tracer) (*result, error) {
	ctx := context.Background()
	sz := o.size
	setup := func() (*admEnv, error) {
		e, err := startEnv(ctx, o, tr)
		if err != nil {
			return nil, err
		}
		ae := &admEnv{env: e}
		for i := 0; i < sz.admBroadcasts; i++ {
			g, err := e.keyed.StartBroadcast(ctx, e.user, ashburn)
			if err != nil {
				ae.close()
				return nil, fmt.Errorf("start broadcast: %w", err)
			}
			ae.ids = append(ae.ids, g.BroadcastID)
		}
		src := rng.New(o.seed)
		for i := 0; i < workers; i++ {
			hc := workerClient()
			w := &admWorker{
				id:      i,
				hc:      hc,
				ctl:     &control.Client{BaseURL: e.keyed.BaseURL, HTTPClient: hc, APIKey: e.keyed.APIKey},
				msg:     &pubsub.Client{BaseURL: e.p.MessageURL(), HTTPClient: hc},
				src:     src.Split(fmt.Sprint("worker", i)),
				user:    e.user,
				grants:  map[string][2]int{},
				lastHLS: map[string]bool{},
			}
			ae.ws = append(ae.ws, w)
			// Warm-up: open the worker's connection on every route it uses.
			if _, err := w.ctl.ResolveEdge(ctx, ae.ids[0], ashburn); err != nil {
				ae.close()
				return nil, fmt.Errorf("warm-up resolve: %w", err)
			}
			if _, err := w.msg.Publish(ctx, ae.ids[0], pubsub.Event{UserID: "warm", Kind: pubsub.KindHeart}); err != nil {
				ae.close()
				return nil, fmt.Errorf("warm-up publish: %w", err)
			}
		}
		return ae, nil
	}
	ae, setupS, err := setupMedian(sz.setups, setup, (*admEnv).close)
	if err != nil {
		return nil, err
	}
	defer ae.close()

	r := newResult()
	r.e2e["setup_s"] = setupS
	perWorker := sz.admRate / workers
	period := time.Second / time.Duration(perWorker)
	n := perWorker * o.seconds

	tr.reset()
	snap0 := ae.p.Metrics().Snapshot()
	win := beginWindow()
	t0 := win.start
	var wg sync.WaitGroup
	for _, w := range ae.ws {
		wg.Add(1)
		go func(w *admWorker) {
			defer wg.Done()
			// Workers interleave: worker i's ops sit i/workers of a period
			// after worker 0's.
			offset := period * time.Duration(w.id) / time.Duration(workers)
			for i := 0; i < n; i++ {
				due := t0.Add(offset + time.Duration(i)*period)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				w.late = append(w.late, time.Since(due))
				op := uint64(w.id)<<40 | uint64(i)
				kind := w.pick()
				if err := w.do(ctx, tr, op, kind, ae.ids); err != nil {
					w.failed++
					w.classify(err)
					if len(w.violations) < 10 {
						w.violations = append(w.violations, fmt.Sprintf("%s: %v", admMix[kind].name, err))
					}
				}
				done := time.Now()
				w.lat = append(w.lat, sample{due.Sub(t0), done.Sub(due)})
				tr.root("admission."+admMix[kind].name, op, due, done)
			}
		}(w)
	}
	wg.Wait()
	win.end()
	snap1 := ae.p.Metrics().Snapshot()

	// §4.1 routing: per broadcast, the first rtmpLimit joins get RTMP and
	// every later one HLS.
	total := map[string][2]int{}
	var lat [][]sample
	var late []time.Duration
	for _, w := range ae.ws {
		lat = append(lat, w.lat)
		late = append(late, w.late...)
		r.attempted += int64(len(w.lat))
		r.failed += w.failed
		r.layer["control.rejected_4xx"] += float64(w.rejected4x)
		r.layer["control.rejected_5xx"] += float64(w.rejected5x)
		for _, v := range w.violations {
			r.violate("worker %d: %s", w.id, v)
		}
		for id, g := range w.grants {
			t := total[id]
			total[id] = [2]int{t[0] + g[0], t[1] + g[1]}
		}
	}
	crossed := 0
	for id, g := range total {
		joins := g[0] + g[1]
		if want := min(joins, sz.rtmpLimit); g[0] != want {
			r.violate("broadcast %s: %d RTMP grants of %d joins, want %d", id, g[0], joins, want)
		}
		if g[1] > 0 {
			crossed++
		}
	}
	r.notes = append(r.notes, fmt.Sprintf("%d of %d broadcasts crossed the %d-viewer RTMP limit", crossed, len(ae.ids), sz.rtmpLimit))
	fillLayers(r, tr, snap0, snap1, win, r.attempted)
	r.setLatency(win, "lat", lat...)
	r.setLatency(win, "g2g", lat...) // a control request's answer is what its user sees
	r.setLateness(late)
	return r, nil
}

// pick draws the next op kind from the seeded mix.
func (w *admWorker) pick() int {
	x := w.src.Intn(100)
	for k, m := range admMix {
		if x < m.percent {
			return k
		}
		x -= m.percent
	}
	return opJoin
}

// do issues one request of the given kind.
func (w *admWorker) do(ctx context.Context, tr *tracer, op uint64, kind int, ids []string) error {
	id := ids[w.src.Intn(len(ids))]
	switch kind {
	case opJoin:
		sp := tr.begin("control.join", op, opSpanID(op), id)
		g, err := w.ctl.Join(ctx, w.user, id, ashburn)
		sp.end()
		if err != nil {
			return err
		}
		c := w.grants[id]
		switch g.Protocol {
		case control.ProtoRTMP:
			// One worker's joins are sequential, so once it has seen an
			// HLS grant for a broadcast it must never see RTMP again.
			if w.lastHLS[id] {
				return fmt.Errorf("broadcast %s: RTMP grant after an HLS grant", id)
			}
			c[0]++
		case control.ProtoHLS:
			w.lastHLS[id] = true
			c[1]++
		default:
			return fmt.Errorf("broadcast %s: granted %q", id, g.Protocol)
		}
		w.grants[id] = c
		return nil
	case opPublish:
		// Comments come from at most 40 users per worker and broadcast,
		// inside the 100-commenter cap; hearts from anyone.
		ev := pubsub.Event{Kind: pubsub.KindHeart, UserID: fmt.Sprintf("w%d-u%d", w.id, w.src.Intn(1000))}
		if w.src.Intn(5) == 0 {
			ev = pubsub.Event{Kind: pubsub.KindComment, UserID: fmt.Sprintf("w%d-u%d", w.id, w.src.Intn(40)), Text: "nice"}
		}
		sp := tr.begin("pubsub.publish", op, opSpanID(op), id)
		_, err := w.msg.Publish(ctx, id, ev)
		sp.end()
		return err
	case opResolve:
		sp := tr.begin("control.resolve", op, opSpanID(op), id)
		loc := edgeSites[w.src.Intn(len(edgeSites))].Location
		_, err := w.ctl.ResolveEdge(ctx, id, loc)
		sp.end()
		return err
	default: // churn: start a broadcast, and end it on the worker's next churn op
		if len(w.churn) == 0 {
			sp := tr.begin("control.start", op, opSpanID(op), "")
			g, err := w.ctl.StartBroadcast(ctx, w.user, ashburn)
			sp.end()
			if err == nil {
				w.churn = append(w.churn, g)
			}
			return err
		}
		g := w.churn[0]
		w.churn = w.churn[1:]
		sp := tr.begin("control.end", op, opSpanID(op), g.BroadcastID)
		err := w.ctl.EndBroadcast(ctx, g.BroadcastID, g.Token)
		sp.end()
		return err
	}
}

// classify counts a failed request by the status class its error maps to.
func (w *admWorker) classify(err error) {
	switch {
	case errors.Is(err, control.ErrUnavailable):
		w.rejected5x++
	case errors.Is(err, control.ErrQuotaExceeded), errors.Is(err, control.ErrNoBroadcast),
		errors.Is(err, control.ErrBadToken), errors.Is(err, control.ErrBadAPIKey),
		errors.Is(err, control.ErrKeyRevoked), errors.Is(err, control.ErrTenantSuspended),
		errors.Is(err, control.ErrEnded), errors.Is(err, control.ErrNotInvited),
		errors.Is(err, pubsub.ErrNotCommenter), errors.Is(err, pubsub.ErrNoChannel):
		w.rejected4x++
	default:
		w.rejected5x++
	}
}
