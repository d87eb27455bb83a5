package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/control"
	"repro/internal/media"
	"repro/internal/rng"
	"repro/internal/rtmp"
)

// frameTemplate is one pre-encoded frame the publisher cycles through, so
// the generator's own cost per frame is a marshal and a write.
type frameTemplate struct {
	key     bool
	payload []byte
	crc     uint32
}

// frameTemplates encodes n frames of the default 500 kbit/s profile with a
// keyframe every 75 frames. n is a multiple of 75, so template i%n is a
// keyframe exactly when frame i would be one.
func frameTemplates(seed uint64, n int) []frameTemplate {
	enc := media.NewEncoder(media.EncoderConfig{}, rng.New(seed).Split("frames"))
	out := make([]frameTemplate, n)
	for i := range out {
		f := enc.Next(time.Time{})
		out[i] = frameTemplate{key: f.Keyframe, payload: f.Payload, crc: crc32.ChecksumIEEE(f.Payload)}
	}
	return out
}

type pushEnv struct {
	*env
	id   string
	pub  *rtmp.Publisher
	view *rtmp.Viewer
	next uint64 // next frame sequence
}

func (pe *pushEnv) close() {
	pe.view.Close()
	pe.pub.Close()
	pe.env.close()
}

// push: one tenant-keyed broadcast, one RTMP publisher sending open-loop at
// pushFPS, one RTMP viewer receiving. An op is one frame delivered.
func runPush(o options, tr *tracer) (*result, error) {
	ctx := context.Background()
	tmpl := frameTemplates(o.seed, 750)
	send := func(pe *pushEnv, due time.Time) error {
		t := tmpl[pe.next%uint64(len(tmpl))]
		f := media.Frame{Seq: pe.next, CapturedAt: due, Keyframe: t.key, Payload: t.payload}
		pe.next++
		return pe.pub.Send(&f)
	}
	setup := func() (*pushEnv, error) {
		e, err := startEnv(ctx, o, tr)
		if err != nil {
			return nil, err
		}
		g, err := e.keyed.StartBroadcast(ctx, e.user, ashburn)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("start broadcast: %w", err)
		}
		pe := &pushEnv{env: e, id: g.BroadcastID}
		if pe.pub, err = rtmp.Publish(ctx, g.RTMPAddr, g.BroadcastID, g.Token, nil); err != nil {
			e.close()
			return nil, fmt.Errorf("publish: %w", err)
		}
		vg, err := e.keyed.Join(ctx, e.user, g.BroadcastID, ashburn)
		if err == nil && vg.Protocol != control.ProtoRTMP {
			err = fmt.Errorf("granted %s, want rtmp", vg.Protocol)
		}
		if err == nil {
			pe.view, err = rtmp.Subscribe(ctx, vg.RTMPAddr, g.BroadcastID, "", rtmp.ViewerOptions{})
		}
		if err != nil {
			pe.pub.Close()
			e.close()
			return nil, fmt.Errorf("viewer: %w", err)
		}
		// Warm-up: two chunks' worth of frames through the whole path, so
		// the broadcast exists at the origin and its journal.
		warm := 2 * media.FramesPerChunk(o.size.chunkDur)
		for i := 0; i < warm; i++ {
			if err := send(pe, time.Now()); err != nil {
				pe.close()
				return nil, fmt.Errorf("warm-up send: %w", err)
			}
		}
		for i := 0; i < warm; i++ {
			select {
			case _, ok := <-pe.view.Frames():
				if !ok {
					pe.close()
					return nil, fmt.Errorf("warm-up: viewer closed: %v", pe.view.Err())
				}
			case <-time.After(10 * time.Second):
				pe.close()
				return nil, fmt.Errorf("warm-up: frame %d never arrived", i)
			}
		}
		return pe, nil
	}
	pe, setupS, err := setupMedian(o.size.setups, setup, (*pushEnv).close)
	if err != nil {
		return nil, err
	}
	defer pe.close()

	r := newResult()
	r.e2e["setup_s"] = setupS
	period := time.Second / time.Duration(o.size.pushFPS)
	n := o.size.pushFPS * o.seconds
	base := pe.next
	drop := uint64(0)
	if o.faults.dropFrame {
		drop = base + uint64(n)/2
	}

	tr.reset()
	snap0 := pe.p.Metrics().Snapshot()
	w := beginWindow()
	t0 := w.start
	late := make([]time.Duration, 0, n)
	var sendErr error
	sent := make(chan struct{})
	go func() { // the publisher: load goroutine 1 of 2
		defer close(sent)
		for i := 0; i < n; i++ {
			due := t0.Add(time.Duration(i) * period)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late = append(late, time.Since(due))
			if pe.next == drop {
				pe.next++ // the injected fault: this frame is never sent
				continue
			}
			sp := tr.begin("rtmp.send", pe.next, opSpanID(pe.next), pe.id)
			err := send(pe, due)
			sp.end()
			if err != nil {
				sendErr = err
				return
			}
		}
	}()

	// The receiver (load goroutine 2 of 2) checks that every frame arrives
	// exactly once, in sequence, with the size and checksum that was sent.
	lat := make([]sample, 0, n)
	end := base + uint64(n)
	expect := base
	deadline := time.After(time.Duration(o.seconds)*time.Second + 10*time.Second)
recv:
	for expect < end {
		select {
		case rf, ok := <-pe.view.Frames():
			if !ok {
				r.violate("viewer closed at frame %d: %v", expect, pe.view.Err())
				break recv
			}
			f := rf.Frame
			switch {
			case f.Seq < expect:
				r.violate("frame %d delivered again or out of order (expected %d)", f.Seq, expect)
				continue
			case f.Seq > expect:
				r.violate("frames %d..%d never delivered", expect, f.Seq-1)
			}
			t := tmpl[f.Seq%uint64(len(tmpl))]
			if len(f.Payload) != len(t.payload) || crc32.ChecksumIEEE(f.Payload) != t.crc {
				r.violate("frame %d: %d bytes, checksum mismatch", f.Seq, len(f.Payload))
			} else {
				lat = append(lat, sample{f.CapturedAt.Sub(t0), rf.ReceivedAt.Sub(f.CapturedAt)})
				tr.root("push.frame", f.Seq, f.CapturedAt, rf.ReceivedAt)
			}
			expect = f.Seq + 1
		case <-deadline:
			r.violate("frames %d..%d not delivered before the deadline", expect, end-1)
			break recv
		}
	}
	<-sent
	w.end()
	if sendErr != nil {
		r.violate("publisher: %v", sendErr)
	}
	snap1 := pe.p.Metrics().Snapshot()

	r.attempted = int64(n)
	r.failed = int64(n - len(lat))
	fillLayers(r, tr, snap0, snap1, w, int64(len(lat)))
	r.setLatency(w, "lat", lat)
	r.setLatency(w, "g2g", lat) // on push the op latency is glass-to-glass
	r.setLateness(late)
	return r, nil
}
