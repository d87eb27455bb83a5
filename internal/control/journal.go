package control

import (
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/metrics"
)

// This file is the control plane's durability layer (DESIGN.md §6.3): every
// state transition the service acknowledges — user registration, broadcast
// start/end, public-key registration, viewer join, and the tenancy records —
// is appended to a write-ahead journal, and Crash/Recover replays it so a
// restarted control plane resumes with live broadcasts, tokens, and edge
// assignments intact. The framing is internal/journal's CRC-checked record
// stream; the payloads here are JSON: the control plane is off every hot
// path, so the codec optimizes for schema evolution over allocation count.
//
// There is one write path. A mutating method validates its input, builds the
// typed record, and hands it to its ctrlOp's commitLocked, which journals the
// record and then applies it. Replay decodes the same record and calls the
// same apply. Live state and replayed state therefore come from one function
// per record type, and records are enqueued while s.mu is held, so the
// journal order IS the serialization the mutex imposed on the live
// mutations. Replaying the log single-threaded reconstructs exactly the
// state the crashed process acknowledged — including the crypto/rand-minted
// broadcast and viewer tokens, which could never be re-derived.

// ctrlOp binds one control record type to its payload codec R and to the
// function that applies it to service state.
type ctrlOp[R any] struct {
	typ   journal.RecordType
	name  string
	apply func(s *Service, id string, rec R)
}

// commitLocked journals rec under id and applies it. Called with s.mu held.
func (op ctrlOp[R]) commitLocked(s *Service, id string, rec R) {
	s.appendLocked(journal.Record{Type: op.typ, BroadcastID: id, Payload: encodeCtrl(rec)})
	op.apply(s, id, rec)
}

// replayLocked decodes one journaled record and applies it. A CRC-valid
// record with an undecodable payload is a writer bug, not tail damage; it is
// skipped (logged) rather than aborting recovery.
func (op ctrlOp[R]) replayLocked(s *Service, r journal.Record) {
	var rec R
	if json.Unmarshal(r.Payload, &rec) != nil {
		s.logf("control: journal %s record %q undecodable", op.name, r.BroadcastID)
		return
	}
	op.apply(s, r.BroadcastID, rec)
}

// The control record types, each with its one apply function. BroadcastID in
// the record frame carries the broadcast ID, or the tenant ID / API key for
// the tenancy records.
var (
	opRegister     = ctrlOp[ctrlRegisterRec]{journal.RecordCtrlRegister, "register", (*Service).applyRegister}
	opStart        = ctrlOp[ctrlStartRec]{journal.RecordCtrlStart, "start", (*Service).applyStart}
	opEnd          = ctrlOp[ctrlEndRec]{journal.RecordCtrlEnd, "end", (*Service).applyEnd}
	opPubKey       = ctrlOp[ctrlKeyRec]{journal.RecordCtrlKey, "key", (*Service).applyPubKey}
	opJoin         = ctrlOp[ctrlJoinRec]{journal.RecordCtrlJoin, "join", (*Service).applyJoin}
	opTenant       = ctrlOp[ctrlTenantRec]{journal.RecordCtrlTenant, "tenant", (*Service).applyTenant}
	opTenantPlan   = ctrlOp[ctrlTenantPlanRec]{journal.RecordCtrlTenantPlan, "tenant plan", (*Service).applyTenantPlan}
	opTenantStatus = ctrlOp[ctrlTenantStatusRec]{journal.RecordCtrlTenantStatus, "tenant status", (*Service).applyTenantStatus}
	opKeyIssue     = ctrlOp[ctrlKeyIssueRec]{journal.RecordCtrlKeyIssue, "key issue", (*Service).applyKeyIssue}
	opKeyRevoke    = ctrlOp[ctrlKeyRevokeRec]{journal.RecordCtrlKeyRevoke, "key revoke", (*Service).applyKeyRevoke}
	opUsage        = ctrlOp[ctrlUsageRec]{journal.RecordCtrlUsage, "usage", (*Service).applyUsage}
)

// replayers dispatches replay by record type.
var replayers = map[journal.RecordType]func(*Service, journal.Record){
	opRegister.typ:     opRegister.replayLocked,
	opStart.typ:        opStart.replayLocked,
	opEnd.typ:          opEnd.replayLocked,
	opPubKey.typ:       opPubKey.replayLocked,
	opJoin.typ:         opJoin.replayLocked,
	opTenant.typ:       opTenant.replayLocked,
	opTenantPlan.typ:   opTenantPlan.replayLocked,
	opTenantStatus.typ: opTenantStatus.replayLocked,
	opKeyIssue.typ:     opKeyIssue.replayLocked,
	opKeyRevoke.typ:    opKeyRevoke.replayLocked,
	opUsage.typ:        opUsage.replayLocked,
}

type ctrlRegisterRec struct {
	ID   uint64 `json:"id"`
	Name string `json:"name,omitempty"`
}

func (s *Service) applyRegister(_ string, rec ctrlRegisterRec) {
	if rec.ID == 0 {
		return
	}
	s.users[rec.ID] = User{ID: rec.ID, Name: rec.Name}
	if rec.ID > s.nextUser {
		s.nextUser = rec.ID
	}
}

type ctrlStartRec struct {
	Token       string   `json:"token"`
	Broadcaster uint64   `json:"broadcaster"`
	OriginID    string   `json:"origin_id,omitempty"`
	RTMPAddr    string   `json:"rtmp_addr,omitempty"`
	RTMPSAddr   string   `json:"rtmps_addr,omitempty"`
	StartedAt   int64    `json:"started_at"` // unix nanos
	City        string   `json:"city,omitempty"`
	Lat         float64  `json:"lat,omitempty"`
	Lon         float64  `json:"lon,omitempty"`
	Private     bool     `json:"private,omitempty"`
	Allowed     []uint64 `json:"allowed,omitempty"`
	TenantID    string   `json:"tenant,omitempty"`
}

// applyStart creates the broadcast with a pre-closed start gate; the live
// start path swaps in an open gate before it releases s.mu (see
// broadcastState.started).
func (s *Service) applyStart(id string, rec ctrlStartRec) {
	if _, ok := s.broadcasts[id]; ok {
		return
	}
	st := &broadcastState{
		id:          id,
		token:       rec.Token,
		broadcaster: rec.Broadcaster,
		originID:    rec.OriginID,
		rtmpAddr:    rec.RTMPAddr,
		rtmpsAddr:   rec.RTMPSAddr,
		startedAt:   time.Unix(0, rec.StartedAt),
		loc:         geo.Location{City: rec.City, Lat: rec.Lat, Lon: rec.Lon},
		private:     rec.Private,
		tenantID:    rec.TenantID,
		started:     closedStart,
	}
	if ts, ok := s.tenants[rec.TenantID]; ok && rec.TenantID != "" {
		ts.live++
	}
	if rec.Private {
		st.allowed = make(map[uint64]bool, len(rec.Allowed))
		for _, u := range rec.Allowed {
			st.allowed[u] = true
		}
		st.viewerTokens = make(map[string]bool)
	}
	s.broadcasts[id] = st
	if !rec.Private {
		// Private broadcasts never appear on the public global list.
		s.livePos[id] = len(s.liveIDs)
		s.liveIDs = append(s.liveIDs, id)
	}
	if n, ok := seqOf(id, "bcast-"); ok && n > s.nextBcast {
		s.nextBcast = n
	}
}

type ctrlEndRec struct {
	EndedAt int64 `json:"ended_at"` // unix nanos
}

func (s *Service) applyEnd(id string, rec ctrlEndRec) {
	st, ok := s.broadcasts[id]
	if !ok || st.ended {
		return
	}
	st.ended = true
	st.endedAt = time.Unix(0, rec.EndedAt)
	if ts, ok := s.tenants[st.tenantID]; ok && st.tenantID != "" && ts.live > 0 {
		ts.live--
	}
	pos, ok := s.livePos[id]
	if !ok {
		return
	}
	last := len(s.liveIDs) - 1
	s.liveIDs[pos] = s.liveIDs[last]
	s.livePos[s.liveIDs[pos]] = pos
	s.liveIDs = s.liveIDs[:last]
	delete(s.livePos, id)
}

type ctrlKeyRec struct {
	PubKey []byte `json:"pubkey"`
}

func (s *Service) applyPubKey(id string, rec ctrlKeyRec) {
	if st, ok := s.broadcasts[id]; ok {
		st.pubKey = append(ed25519.PublicKey(nil), rec.PubKey...)
	}
}

type ctrlJoinRec struct {
	UserID uint64 `json:"user_id"`
	At     int64  `json:"at"` // unix nanos
	// ViewerToken is set for private-broadcast joins: the origin validates
	// it at RTMPS handshake, so it must survive a control restart.
	ViewerToken string `json:"viewer_token,omitempty"`
}

func (s *Service) applyJoin(id string, rec ctrlJoinRec) {
	st, ok := s.broadcasts[id]
	if !ok || st.ended {
		return
	}
	st.joins = append(st.joins, ViewerJoin{UserID: rec.UserID, At: time.Unix(0, rec.At)})
	if rec.ViewerToken != "" && st.viewerTokens != nil {
		st.viewerTokens[rec.ViewerToken] = true
	}
}

type ctrlTenantRec struct {
	Name      string `json:"name,omitempty"`
	Plan      Plan   `json:"plan"`
	Suspended bool   `json:"suspended,omitempty"`
	CreatedAt int64  `json:"created_at"` // unix nanos
}

// applyTenant upserts the tenant row, keeping the live count and rollups
// accumulated so far.
func (s *Service) applyTenant(id string, rec ctrlTenantRec) {
	t := Tenant{
		ID:        id,
		Name:      rec.Name,
		Plan:      rec.Plan,
		Suspended: rec.Suspended,
		CreatedAt: time.Unix(0, rec.CreatedAt),
	}
	if ts, ok := s.tenants[id]; ok {
		ts.t = t
	} else {
		s.tenants[id] = &tenantState{t: t, usage: make(map[string]UsageDay)}
	}
	if n, ok := seqOf(id, "tnt-"); ok && n > s.nextTenant {
		s.nextTenant = n
	}
}

type ctrlTenantPlanRec struct {
	Plan Plan `json:"plan"`
}

func (s *Service) applyTenantPlan(id string, rec ctrlTenantPlanRec) {
	if ts, ok := s.tenants[id]; ok {
		ts.t.Plan = rec.Plan
	}
}

type ctrlTenantStatusRec struct {
	Suspended bool `json:"suspended"`
}

func (s *Service) applyTenantStatus(id string, rec ctrlTenantStatusRec) {
	if ts, ok := s.tenants[id]; ok {
		ts.t.Suspended = rec.Suspended
	}
}

type ctrlKeyIssueRec struct {
	Tenant   string `json:"tenant"`
	IssuedAt int64  `json:"issued_at"` // unix nanos
}

func (s *Service) applyKeyIssue(key string, rec ctrlKeyIssueRec) {
	if rec.Tenant == "" {
		return
	}
	s.keys[key] = &APIKey{Key: key, TenantID: rec.Tenant, IssuedAt: time.Unix(0, rec.IssuedAt)}
}

type ctrlKeyRevokeRec struct{}

func (s *Service) applyKeyRevoke(key string, _ ctrlKeyRevokeRec) {
	if k, ok := s.keys[key]; ok {
		k.Revoked = true
	}
}

// ctrlUsageRec carries ABSOLUTE cumulative day totals (see
// journal.RecordCtrlUsage): replay assigns, so a torn tail can lose the
// newest rollup but never double-counts an older one.
type ctrlUsageRec struct {
	Day    string `json:"day"`
	Frames int64  `json:"frames"`
	Chunks int64  `json:"chunks"`
	Bytes  int64  `json:"bytes"`
}

// applyUsage ASSIGNS the absolute totals — never adds. Later records for the
// same day simply carry larger totals, so replaying any prefix of the journal
// (a torn tail) yields exact counts as of the last durable flush.
func (s *Service) applyUsage(tenantID string, rec ctrlUsageRec) {
	ts, ok := s.tenants[tenantID]
	if !ok || rec.Day == "" {
		return
	}
	ts.usage[rec.Day] = UsageDay(rec)
}

// encodeCtrl marshals a payload codec. The codecs are plain structs of
// scalars and slices; json.Marshal cannot fail on them.
func encodeCtrl(v interface{}) []byte {
	b, _ := json.Marshal(v)
	return b
}

func seqOf(id, prefix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// ctrlMetrics instrument the durability layer: recovery latency plus the
// replay/corruption counters shared (by name, distinguished by the site
// label) with the origin journals.
type ctrlMetrics struct {
	recovery     *metrics.Histogram
	replayed     *metrics.Counter
	corruptTails *metrics.Counter
}

// recoveryBuckets resolve control-plane recovery time: journal replay over
// in-memory or file backends, expected in the low milliseconds.
var recoveryBuckets = []time.Duration{
	time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	time.Second,
	5 * time.Second,
}

func newCtrlMetrics(reg *metrics.Registry) *ctrlMetrics {
	l := metrics.L("site", "control")
	return &ctrlMetrics{
		recovery:     reg.Histogram("control_recovery_seconds", recoveryBuckets),
		replayed:     reg.Counter("journal_replayed_records_total", l),
		corruptTails: reg.Counter("journal_corrupt_tails_total", l),
	}
}

// closedStart is the pre-closed start gate given to replayed broadcasts:
// their OnStart side effects re-fire during Recover, so an end must never
// wait on them.
var closedStart = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// appendLocked enqueues one record on the journal writer. Called with s.mu
// held — see the package comment above: holding the lock across the enqueue
// is what makes journal order equal mutation order. The writer only
// enqueues (the group commit runs on its own goroutine), so the critical
// section grows by a channel send, never an fsync.
func (s *Service) appendLocked(r journal.Record) {
	if s.jw == nil {
		return
	}
	if err := s.jw.Append(r); err != nil && !errors.Is(err, journal.ErrClosed) {
		s.logf("control: journal append: %v", err)
	}
}

// openJournalLocked replays the configured journal backend into the service
// state, truncates any damaged tail, and starts the group-commit writer.
// No-op without a backend. Called with s.mu held.
func (s *Service) openJournalLocked() {
	backend := s.cfg.Journal
	if backend == nil {
		return
	}
	data, err := backend.Load()
	if err != nil {
		s.logf("control: journal load: %v", err)
		data = nil
	}
	st, _ := journal.Replay(data, func(r journal.Record) error {
		if replay, ok := replayers[r.Type]; ok {
			replay(s, r)
		} else {
			// Unknown record types are skipped, not fatal: a journal written
			// by a newer binary must not brick an older one's recovery.
			s.logf("control: journal record type %d unknown", r.Type)
		}
		return nil
	})
	if st.TailCorrupt {
		// Discard the damaged tail before appending anything new: bytes
		// written after a corrupt region would be unreachable to every
		// future replay.
		s.m.corruptTails.Inc()
		s.logf("control: journal tail corrupt: discarding %d bytes after %d records",
			st.DiscardedBytes, st.Records)
		if err := backend.Truncate(int64(st.ValidBytes)); err != nil {
			s.logf("control: journal truncate: %v", err)
		}
	}
	s.m.replayed.Add(int64(st.Records))
	s.jw = journal.NewWriter(backend, journal.WriterConfig{
		Metrics: s.reg,
		Labels:  []metrics.Label{metrics.L("site", "control")},
		Logf:    s.logf,
	})
}

// Crash kills the control plane in place: the journal writer drains
// (everything acknowledged before the crash is durable) and all volatile
// state is dropped. The Service object itself survives, answering
// ErrUnavailable (503 over HTTP) until Recover. Registered OnStart/OnEnd
// callbacks survive too — they are process wiring, not state.
func (s *Service) Crash() {
	s.mu.Lock()
	if s.crashed.Load() {
		s.mu.Unlock()
		return
	}
	// Flipped under s.mu, where every mutation checks it: a mutation either
	// commits before this point, onto the writer that Close drains below,
	// or answers ErrUnavailable — never acknowledged and unjournaled.
	s.crashed.Store(true)
	jw := s.jw
	s.jw = nil
	s.mu.Unlock()
	if jw != nil {
		jw.Close()
	}
	s.mu.Lock()
	s.users = make(map[uint64]User)
	s.broadcasts = make(map[string]*broadcastState)
	s.liveIDs = nil
	s.livePos = make(map[string]int)
	s.nextUser = 0
	s.nextBcast = 0
	// Tenancy state is journaled and wiped like everything else — auth fails
	// closed (ErrUnavailable) until Recover replays tenants and keys. The
	// meters map deliberately survives: those are data-plane accumulators
	// (like the origins' own counters), and delivery metered during the
	// outage must land in the post-Recover rollups, not vanish.
	s.tenants = make(map[string]*tenantState)
	s.keys = make(map[string]*APIKey)
	s.nextTenant = 0
	s.mu.Unlock()
}

// Down reports whether the control plane is crashed — the signal degraded
// clients and the grant cache consult.
func (s *Service) Down() bool { return s.crashed.Load() }

// Close drains the journal writer on clean shutdown, making everything the
// service acknowledged durable. Unlike Crash, state stays intact and the
// service keeps answering; it just stops journaling. Idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	jw := s.jw
	s.jw = nil
	s.mu.Unlock()
	if jw != nil {
		jw.Close()
	}
}

// Recover restarts a crashed control plane: journal replay rebuilds users,
// broadcasts (with their unforgeable tokens), joins, and the live list;
// damaged tails are truncated; then the OnStart callbacks re-fire for every
// still-live broadcast so the platform reopens pubsub channels and topology
// assignments (both idempotent). The wall-clock cost lands in the
// control_recovery_seconds histogram. No-op on a healthy service.
func (s *Service) Recover() {
	if !s.crashed.Load() {
		return
	}
	start := s.clock.Now()
	s.mu.Lock()
	s.openJournalLocked()
	type liveRef struct{ id, origin string }
	var live []liveRef
	for id, st := range s.broadcasts {
		if !st.ended {
			live = append(live, liveRef{id: id, origin: st.originID})
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	callbacks := make([]func(broadcastID, originID string), len(s.onStart))
	copy(callbacks, s.onStart)
	s.mu.Unlock()
	s.crashed.Store(false)
	for _, b := range live {
		for _, fn := range callbacks {
			fn(b.id, b.origin)
		}
	}
	s.m.recovery.Observe(s.clock.Now().Sub(start))
}
