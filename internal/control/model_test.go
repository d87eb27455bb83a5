package control

import (
	"crypto/ed25519"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/wire"
)

// TestLiveEqualsReplay is the write path's model check: a seeded generator
// runs every mutation kind in random order, and after every step a fresh
// Service replayed from a copy of the journal must equal the live one. Live
// and replayed state come from the same apply functions, so any divergence —
// a field the live path sets but the record does not carry, a record the
// live path forgets to append — fails here at the step that caused it.
func TestLiveEqualsReplay(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { runLiveReplayModel(t, seed, 160) })
	}
}

// modelWorld is what the generator knows about the service it drives.
type modelWorld struct {
	users      []uint64
	broadcasts []modelBroadcast
	tenants    []string
	keys       []string
}

type modelBroadcast struct {
	id, token    string
	viewerTokens []string
}

func runLiveReplayModel(t *testing.T, seed uint64, steps int) {
	clk := clock.NewVirtual(time.Date(2026, 3, 1, 22, 0, 0, 0, time.UTC))
	backend := journal.NewMem()
	reg := metrics.NewRegistry()
	newSvc := func(b journal.Backend, reg *metrics.Registry) *Service {
		return NewService(Config{
			Routes: Routes{
				AssignOrigin: func(geo.Location) (string, string) { return "origin-1", "127.0.0.1:1935" },
				RTMPSAddr:    func(string) string { return "127.0.0.1:19350" },
				AssignEdge:   func(string, geo.Location) string { return "http://edge-1/hls" },
				MessageURL:   "http://msg/channel",
			},
			RTMPViewerLimit: 2,
			Seed:            seed,
			Journal:         b,
			Clock:           clk,
			Metrics:         reg,
		})
	}
	s := newSvc(backend, reg)
	defer s.Close()

	r := rng.New(seed)
	var w modelWorld
	pick := func(n int) int { return r.Intn(n) }
	anyUser := func() uint64 {
		if len(w.users) == 0 || r.Bool(0.1) {
			return uint64(1000 + pick(5)) // unregistered viewers join too
		}
		return w.users[pick(len(w.users))]
	}
	anyKey := func() string {
		if len(w.keys) == 0 || r.Bool(0.1) {
			return "key-forged"
		}
		return w.keys[pick(len(w.keys))]
	}
	anyTenant := func() string {
		if len(w.tenants) == 0 || r.Bool(0.1) {
			return "tnt-404"
		}
		return w.tenants[pick(len(w.tenants))]
	}
	anyPlan := func() Plan {
		return Plan{
			Name:                    fmt.Sprint("p", pick(3)),
			MaxConcurrentBroadcasts: pick(4),
			MaxJoinRPS:              float64(pick(3)),
			DailyBytesQuota:         int64(pick(3)) * 4000,
		}
	}
	started := func(g BroadcastGrant, err error) {
		if err == nil {
			w.broadcasts = append(w.broadcasts, modelBroadcast{id: g.BroadcastID, token: g.Token})
		}
	}

	for step := 0; step < steps; step++ {
		var op string
		switch k := pick(16); {
		case k == 0 || len(w.users) == 0:
			op = "register"
			w.users = append(w.users, s.Register(fmt.Sprint("u", step)).ID)
		case k == 1:
			op = "start"
			started(s.StartBroadcast(StartRequest{UserID: anyUser(), Location: geo.Location{City: "NYC", Lat: 40.7, Lon: -74}}))
		case k == 2:
			op = "start private"
			started(s.StartBroadcast(StartRequest{UserID: anyUser(), Private: true, Allowed: []uint64{anyUser(), anyUser()}}))
		case k == 3:
			op = "start keyed"
			started(s.StartBroadcast(StartRequest{APIKey: anyKey(), UserID: anyUser()}))
		case k == 4 && len(w.broadcasts) > 0:
			op = "pubkey"
			b := w.broadcasts[pick(len(w.broadcasts))]
			pub, _, _ := ed25519.GenerateKey(nil)
			token := b.token
			if r.Bool(0.2) {
				token = "wrong"
			}
			s.RegisterPublicKey(b.id, token, pub)
		case (k == 5 || k == 6) && len(w.broadcasts) > 0:
			op = "join"
			i := pick(len(w.broadcasts))
			req := JoinRequest{UserID: anyUser(), BroadcastID: w.broadcasts[i].id}
			if k == 6 {
				op, req.APIKey = "join keyed", anyKey()
			}
			if g, err := s.Join(req); err == nil && g.ViewerToken != "" {
				w.broadcasts[i].viewerTokens = append(w.broadcasts[i].viewerTokens, g.ViewerToken)
			}
		case k == 7 && len(w.broadcasts) > 0:
			op = "end"
			b := w.broadcasts[pick(len(w.broadcasts))]
			if r.Bool(0.5) {
				s.ForceEnd(b.id)
			} else {
				s.EndBroadcast(b.id, b.token)
			}
		case k == 8:
			op = "create tenant"
			if tn, err := s.CreateTenant(fmt.Sprint("t", step), anyPlan()); err == nil {
				w.tenants = append(w.tenants, tn.ID)
			}
		case k == 9:
			op = "set plan"
			s.SetTenantPlan(anyTenant(), anyPlan())
		case k == 10:
			op = "suspend/resume"
			if r.Bool(0.5) {
				s.SuspendTenant(anyTenant())
			} else {
				s.ResumeTenant(anyTenant())
			}
		case k == 11:
			op = "issue key"
			if key, err := s.IssueAPIKey(anyTenant()); err == nil {
				w.keys = append(w.keys, key.Key)
			}
		case k == 12:
			op = "revoke key"
			s.RevokeAPIKey(anyKey())
		case k == 13 && len(w.broadcasts) > 0:
			op = "meter+flush"
			if m := s.Meter(w.broadcasts[pick(len(w.broadcasts))].id); m != nil {
				m.MeterFrames(int64(1+pick(10)), int64(100*(1+pick(20))))
				m.MeterChunks(int64(pick(3)), int64(1000*pick(3)))
			}
			s.FlushUsage()
		default:
			op = "advance clock"
			clk.Advance(time.Duration(1+pick(40)) * time.Minute)
		}

		snapshot := journal.NewMem()
		snapshot.Append(syncedJournal(t, reg, backend))
		replica := newSvc(snapshot, nil)
		if diff := compareServices(s, replica, &w); diff != "" {
			replica.Close()
			t.Fatalf("step %d (%s): replay diverges from live: %s", step, op, diff)
		}
		replica.Close()
	}
}

// syncedJournal waits until the group-commit writer has handed every record
// the live service appended to the backend, and returns the backend's bytes.
func syncedJournal(t *testing.T, reg *metrics.Registry, backend *journal.Mem) []byte {
	t.Helper()
	var want int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "journal_appends_total" && c.Labels["site"] == "control" {
			want = c.Value
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, _ := backend.Load()
		st, _ := journal.Replay(data, func(journal.Record) error { return nil })
		if int64(st.Records) == want {
			return data
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal holds %d records, writer acknowledged %d", st.Records, want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// compareServices reports the first observable difference between the live
// service and its replica, or "".
func compareServices(live, replica *Service, w *modelWorld) string {
	if a, b := live.UserCount(), replica.UserCount(); a != b {
		return fmt.Sprintf("UserCount %d vs %d", a, b)
	}
	if a, b := liveSet(live), liveSet(replica); !reflect.DeepEqual(a, b) {
		return fmt.Sprintf("GlobalList %v vs %v", a, b)
	}
	if a, b := live.Tenants(), replica.Tenants(); !reflect.DeepEqual(a, b) {
		return fmt.Sprintf("Tenants %+v vs %+v", a, b)
	}
	for _, id := range w.tenants {
		a, errA := live.Usage(id)
		b, errB := replica.Usage(id)
		if !reflect.DeepEqual(a, b) || errA != errB {
			return fmt.Sprintf("Usage(%s) %+v/%v vs %+v/%v", id, a, errA, b, errB)
		}
	}
	// Admission inputs the public surface does not show: key verdicts and
	// each tenant's live-broadcast count (the plan cap's input).
	for _, k := range w.keys {
		if a, b := keyVerdict(live, k), keyVerdict(replica, k); a != b {
			return fmt.Sprintf("key %s verdict %q vs %q", k, a, b)
		}
	}
	for _, id := range w.tenants {
		if a, b := tenantLive(live, id), tenantLive(replica, id); a != b {
			return fmt.Sprintf("tenant %s live broadcasts %d vs %d", id, a, b)
		}
	}
	for _, bc := range w.broadcasts {
		a, errA := live.Info(bc.id)
		b, errB := replica.Info(bc.id)
		if !reflect.DeepEqual(a, b) || errA != errB {
			return fmt.Sprintf("Info(%s) %+v/%v vs %+v/%v", bc.id, a, errA, b, errB)
		}
		ja, _ := live.Joins(bc.id)
		jb, _ := replica.Joins(bc.id)
		if !reflect.DeepEqual(ja, jb) {
			return fmt.Sprintf("Joins(%s) %+v vs %+v", bc.id, ja, jb)
		}
		if a, b := live.TenantOf(bc.id), replica.TenantOf(bc.id); a != b {
			return fmt.Sprintf("TenantOf(%s) %q vs %q", bc.id, a, b)
		}
		if a, b := live.PublicKey(bc.id), replica.PublicKey(bc.id); !a.Equal(b) {
			return fmt.Sprintf("PublicKey(%s) differs", bc.id)
		}
		checks := []struct{ token, role string }{
			{bc.token, wire.RoleBroadcaster},
			{"forged", wire.RoleBroadcaster},
			{"forged", wire.RoleViewer},
		}
		for _, vt := range bc.viewerTokens {
			checks = append(checks, struct{ token, role string }{vt, wire.RoleViewer})
		}
		for _, c := range checks {
			if a, b := (Auth{S: live}).Authorize(bc.id, c.token, c.role), (Auth{S: replica}).Authorize(bc.id, c.token, c.role); a != b {
				return fmt.Sprintf("Authorize(%s, %s, %s) %v vs %v", bc.id, c.token, c.role, a, b)
			}
		}
	}
	return ""
}

// liveSet is GlobalList membership: the generator keeps fewer than
// GlobalListSize broadcasts live, so the list is the whole live set.
func liveSet(s *Service) []string {
	var ids []string
	for _, b := range s.GlobalList() {
		ids = append(ids, b.BroadcastID)
	}
	sort.Strings(ids)
	return ids
}

func keyVerdict(s *Service, key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, err := s.resolveKeyLocked(key)
	if err != nil {
		return err.Error()
	}
	return ts.t.ID
}

func tenantLive(s *Service, id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ts, ok := s.tenants[id]; ok {
		return ts.live
	}
	return -1
}
