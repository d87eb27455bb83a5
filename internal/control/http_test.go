package control

import (
	"context"
	"crypto/ed25519"
	"errors"
	"net/http"
	"net/http/httptest"
	pathpkg "path"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/journal"
)

// newHTTPTenantFixture builds a service + handler + key-bearing client with
// one tenant and one tenanted broadcast.
func newHTTPTenantFixture(t *testing.T, clk clock.Clock, plan Plan) (*Service, *httptest.Server, *Client, Tenant, BroadcastGrant) {
	t.Helper()
	s := newTenantService(journal.NewMem(), clk)
	tn, err := s.CreateTenant("acme", plan)
	if err != nil {
		t.Fatal(err)
	}
	k, err := s.IssueAPIKey(tn.ID)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler("/api", s))
	t.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL + "/api", APIKey: k.Key}
	u := s.Register("streamer")
	grant, err := s.StartBroadcast(StartRequest{APIKey: k.Key, UserID: u.ID, Location: geo.Location{City: "NYC"}})
	if err != nil {
		t.Fatal(err)
	}
	return s, srv, c, tn, grant
}

// rawStatus posts a request with an explicit key and returns status + error
// code header, for asserting exact wire-level behavior.
func rawStatus(t *testing.T, url, key, body string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set(apiKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get(errCodeHeader), resp.Header
}

// TestHTTPAuthStatusPaths pins each tenancy failure to its status code and
// X-Control-Error code, and checks the client reconstructs the sentinel error.
func TestHTTPAuthStatusPaths(t *testing.T) {
	s, srv, c, tn, grant := newHTTPTenantFixture(t, nil, Plan{})
	ctx := context.Background()
	joinBody := `{"user_id": 7}`
	joinURL := srv.URL + "/api/broadcasts/" + grant.BroadcastID + "/join"

	// 401 bad_api_key: unknown key.
	if code, ec, _ := rawStatus(t, joinURL, "key-forged", joinBody); code != http.StatusUnauthorized || ec != "bad_api_key" {
		t.Fatalf("bad key: status %d, code %q", code, ec)
	}
	bad := &Client{BaseURL: c.BaseURL, APIKey: "key-forged"}
	if _, err := bad.Join(ctx, 7, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrBadAPIKey) {
		t.Fatalf("bad key via client: err = %v", err)
	}

	// 403 key_revoked.
	revoked, _ := s.IssueAPIKey(tn.ID)
	if err := s.RevokeAPIKey(revoked.Key); err != nil {
		t.Fatal(err)
	}
	if code, ec, _ := rawStatus(t, joinURL, revoked.Key, joinBody); code != http.StatusForbidden || ec != "key_revoked" {
		t.Fatalf("revoked key: status %d, code %q", code, ec)
	}
	rc := &Client{BaseURL: c.BaseURL, APIKey: revoked.Key}
	if _, err := rc.Join(ctx, 7, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("revoked key via client: err = %v", err)
	}

	// 403 tenant_suspended.
	if err := s.SuspendTenant(tn.ID); err != nil {
		t.Fatal(err)
	}
	if code, ec, _ := rawStatus(t, joinURL, c.APIKey, joinBody); code != http.StatusForbidden || ec != "tenant_suspended" {
		t.Fatalf("suspended: status %d, code %q", code, ec)
	}
	if _, err := c.Join(ctx, 7, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrTenantSuspended) {
		t.Fatalf("suspended via client: err = %v", err)
	}
	if err := s.ResumeTenant(tn.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(ctx, 7, grant.BroadcastID, geo.Location{}); err != nil {
		t.Fatalf("resumed join: %v", err)
	}

	// 404 no_tenant on the admin surface.
	if _, err := c.Usage(ctx, "tnt-404"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("usage for missing tenant: err = %v", err)
	}
	if _, err := c.IssueAPIKey(ctx, "tnt-404"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("key for missing tenant: err = %v", err)
	}

	// 400: a key on a private start is a contradiction.
	code, _, _ := rawStatus(t, srv.URL+"/api/broadcasts", c.APIKey, `{"user_id": 1, "private": true}`)
	if code != http.StatusBadRequest {
		t.Fatalf("key+private start: status %d, want 400", code)
	}
}

// TestHTTPQuota429 pins the 429 path: Retry-After carries the server-computed
// wait and the client reconstructs a QuotaError whose hint FailoverPoller can
// honor.
func TestHTTPQuota429(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2026, 3, 1, 23, 59, 0, 0, time.UTC))
	s, srv, c, tn, grant := newHTTPTenantFixture(t, clk, Plan{DailyBytesQuota: 100})
	ctx := context.Background()
	s.Meter(grant.BroadcastID).MeterChunks(1, 100)

	code, ec, hdr := rawStatus(t, srv.URL+"/api/broadcasts/"+grant.BroadcastID+"/join", c.APIKey, `{"user_id": 9}`)
	if code != http.StatusTooManyRequests || ec != "quota" {
		t.Fatalf("quota join: status %d, code %q", code, ec)
	}
	// 60s to the UTC day boundary → Retry-After: 60.
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra != 60 {
		t.Fatalf("Retry-After = %q, want 60", hdr.Get("Retry-After"))
	}

	_, err := c.Join(ctx, 9, grant.BroadcastID, geo.Location{})
	var qe *QuotaError
	if !errors.As(err, &qe) || !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("client quota err = %v, want QuotaError", err)
	}
	if qe.RetryAfterHint() != 60*time.Second {
		t.Fatalf("client RetryAfterHint = %v, want 60s", qe.RetryAfterHint())
	}

	// The concurrent-broadcast cap answers on the same path.
	if err := s.SetTenantPlan(tn.ID, Plan{MaxConcurrentBroadcasts: 1}); err != nil {
		t.Fatal(err)
	}
	code, ec, _ = rawStatus(t, srv.URL+"/api/broadcasts", c.APIKey, `{"user_id": 1}`)
	if code != http.StatusTooManyRequests || ec != "quota" {
		t.Fatalf("capped start: status %d, code %q", code, ec)
	}
}

// TestHTTPTenantAdminRoundTrip drives the whole admin surface through the
// client: create, key issue, key-authed start, usage, suspend/resume, revoke.
func TestHTTPTenantAdminRoundTrip(t *testing.T) {
	s := newTenantService(journal.NewMem(), nil)
	srv := httptest.NewServer(Handler("/api", s))
	defer srv.Close()
	admin := &Client{BaseURL: srv.URL + "/api"}
	ctx := context.Background()

	tn, err := admin.CreateTenant(ctx, "acme", Plan{Name: "pro", MaxJoinRPS: 50, DailyBytesQuota: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if tn.ID == "" || tn.Plan.Name != "pro" || tn.Plan.DailyBytesQuota != 1<<30 {
		t.Fatalf("created tenant = %+v", tn)
	}
	key, err := admin.IssueAPIKey(ctx, tn.ID)
	if err != nil {
		t.Fatal(err)
	}

	app := &Client{BaseURL: admin.BaseURL, APIKey: key}
	uid, err := app.Register(ctx, "streamer")
	if err != nil {
		t.Fatal(err)
	}
	grant, err := app.StartBroadcast(ctx, uid, geo.Location{City: "NYC"})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.TenantOf(grant.BroadcastID); got != tn.ID {
		t.Fatalf("key-authed start not attributed: TenantOf = %q", got)
	}

	// Usage: empty before any flush, populated after metering + flush.
	days, err := admin.Usage(ctx, tn.ID)
	if err != nil || len(days) != 0 {
		t.Fatalf("fresh usage = %+v, err %v", days, err)
	}
	s.Meter(grant.BroadcastID).MeterFrames(3, 333)
	s.FlushUsage()
	days, err = admin.Usage(ctx, tn.ID)
	if err != nil || len(days) != 1 || days[0].Bytes != 333 || days[0].Frames != 3 {
		t.Fatalf("flushed usage = %+v, err %v", days, err)
	}

	if err := admin.SuspendTenant(ctx, tn.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Join(ctx, uid, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrTenantSuspended) {
		t.Fatalf("join while suspended: err = %v", err)
	}
	if err := admin.ResumeTenant(ctx, tn.ID); err != nil {
		t.Fatal(err)
	}
	if err := admin.RevokeAPIKey(ctx, key); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Join(ctx, uid, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("join with revoked key: err = %v", err)
	}
}

// TestHTTPUsageBadRequest: /usage without a tenant parameter is a 400, not a
// panic or an empty 200.
func TestHTTPUsageBadRequest(t *testing.T) {
	s := newTenantService(journal.NewMem(), nil)
	srv := httptest.NewServer(Handler("/api", s))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/usage")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("usage without tenant: status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPKeyAuthUnavailable: a crashed control plane answers 503 to
// key-authenticated calls — fail closed, never a tenancy verdict derived from
// wiped state.
func TestHTTPKeyAuthUnavailable(t *testing.T) {
	s, srv, c, _, grant := newHTTPTenantFixture(t, nil, Plan{})
	s.Crash()
	code, ec, hdr := rawStatus(t, srv.URL+"/api/broadcasts/"+grant.BroadcastID+"/join", c.APIKey, `{"user_id": 5}`)
	if code != http.StatusServiceUnavailable || ec != "unavailable" {
		t.Fatalf("crashed join: status %d, code %q", code, ec)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if _, err := c.Join(context.Background(), 5, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("crashed join via client: err = %v", err)
	}
}

// TestHTTPCrashGateFailsClosed: while control is crashed every route answers
// 503 unavailable — in particular the §7.2 key lookup, which must never
// answer "no key" (unsigned) from wiped state.
func TestHTTPCrashGateFailsClosed(t *testing.T) {
	s := newTestService()
	srv := httptest.NewServer(Handler("/api", s))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL + "/api"}
	ctx := context.Background()
	uid, err := c.Register(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	grant, err := c.StartBroadcast(ctx, uid, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}
	pub, _, _ := ed25519.GenerateKey(nil)
	if err := c.RegisterPublicKey(ctx, grant.BroadcastID, grant.Token, pub); err != nil {
		t.Fatal(err)
	}
	if k, err := c.PublicKey(ctx, grant.BroadcastID); err != nil || len(k) != ed25519.PublicKeySize {
		t.Fatalf("healthy PublicKey = %d bytes, err %v", len(k), err)
	}

	s.Crash()
	if k, err := c.PublicKey(ctx, grant.BroadcastID); !errors.Is(err, ErrUnavailable) || k != nil {
		t.Fatalf("crashed PublicKey = %d bytes, err %v; want ErrUnavailable", len(k), err)
	}
	for _, path := range []string{"/broadcasts/" + grant.BroadcastID + "/pubkey", "/global", "/tenants"} {
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(errCodeHeader) != "unavailable" {
			t.Fatalf("GET %s while crashed: status %d, code %q", path, resp.StatusCode, resp.Header.Get(errCodeHeader))
		}
	}
}

// TestHTTPResolveEdgeQueryValidation: lat/lon must parse as finite floats;
// an absent parameter means 0.
func TestHTTPResolveEdgeQueryValidation(t *testing.T) {
	s := newTestService()
	srv := httptest.NewServer(Handler("/api", s))
	defer srv.Close()
	grant, err := s.StartBroadcast(StartRequest{UserID: s.Register("b").ID})
	if err != nil {
		t.Fatal(err)
	}
	base := srv.URL + "/api/broadcasts/" + grant.BroadcastID + "/edge"
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"?city=NYC&lat=40.7&lon=-74", http.StatusOK},
		{"", http.StatusOK},
		{"?lat=-33.9", http.StatusOK},
		{"?lat=abc&lon=1", http.StatusBadRequest},
		{"?lat=12abc", http.StatusBadRequest},
		{"?lat=1&lon=NaN", http.StatusBadRequest},
		{"?lat=Inf", http.StatusBadRequest},
		{"?lon=-Inf", http.StatusBadRequest},
		{"?lat=1e999", http.StatusBadRequest},
	} {
		resp, err := http.Get(base + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("edge%s: status %d, want %d", tc.query, resp.StatusCode, tc.want)
		}
	}
}

// TestHTTPWrongMethod405: every route answers a wrong method with the
// mux's 405 and an Allow header.
func TestHTTPWrongMethod405(t *testing.T) {
	h := Handler("/api", newTestService())
	for _, tc := range []struct{ method, path, allow string }{
		{http.MethodGet, "/api/users", "POST"},
		{http.MethodPost, "/api/global", "GET, HEAD"},
		{http.MethodGet, "/api/broadcasts/bcast-1/end", "POST"},
		{http.MethodDelete, "/api/tenants", "GET, HEAD, POST"},
		{http.MethodGet, "/api/keys/revoke", "POST"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, nil))
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != tc.allow {
			t.Errorf("%s %s: status %d, Allow %q; want 405, %q", tc.method, tc.path, rec.Code, rec.Header().Get("Allow"), tc.allow)
		}
	}
}

// TestErrorTableRoundTrip: every sentinel the server writes comes back from
// the client as the same sentinel.
func TestErrorTableRoundTrip(t *testing.T) {
	for _, e := range errorTable {
		if e.code == "" {
			continue
		}
		rec := httptest.NewRecorder()
		respondErr(rec, e.err)
		if rec.Code != e.status || rec.Header().Get(errCodeHeader) != e.code {
			t.Fatalf("%v: status %d code %q", e.err, rec.Code, rec.Header().Get(errCodeHeader))
		}
		if got := errFromResponse(rec.Result()); !errors.Is(got, e.err) {
			t.Fatalf("%v round-tripped as %v", e.err, got)
		}
	}
}

// FuzzControlHandler feeds arbitrary method, path, body and X-API-Key to the
// HTTP surface of a seeded service. The body and key may name the fixture's
// real credentials as {token} and {key}. The handler must not panic, never
// answer 500, and every non-2xx must be a 400/404/405 or carry a known
// X-Control-Error code. The one exception is the mux's path-canonicalizing
// redirect for unclean paths ("//", "/../").
func FuzzControlHandler(f *testing.F) {
	for _, seed := range []struct{ method, path, body, key string }{
		{"POST", "/users", `{"name":"eve"}`, ""},
		{"GET", "/global", "", ""},
		{"POST", "/broadcasts", `{"user_id":1,"city":"NYC","lat":40.7,"lon":-74}`, ""},
		{"POST", "/broadcasts", `{"user_id":1,"private":true,"allowed":[2,3]}`, ""},
		{"POST", "/broadcasts", `{"user_id":1}`, "{key}"},
		{"POST", "/broadcasts", `{"user_id":1,"private":true}`, "{key}"},
		{"GET", "/broadcasts/bcast-1", "", ""},
		{"POST", "/broadcasts/bcast-1/join", `{"user_id":9}`, "{key}"},
		{"POST", "/broadcasts/bcast-1/join", `{"user_id":9}`, "key-forged"},
		{"POST", "/broadcasts/bcast-2/join", `{"user_id":4}`, ""},
		{"POST", "/broadcasts/bcast-1/pubkey", `{"token":"{token}","pubkey_hex":"00"}`, ""},
		{"GET", "/broadcasts/bcast-1/pubkey", "", ""},
		{"GET", "/broadcasts/bcast-1/edge?lat=1&lon=NaN", "", ""},
		{"POST", "/broadcasts/bcast-1/end", `{"token":"{token}"}`, ""},
		{"POST", "/tenants", `{"name":"t","plan":{"max_join_rps":1}}`, ""},
		{"GET", "/tenants/tnt-1", "", ""},
		{"POST", "/tenants/tnt-1/plan", `{"max_broadcasts":1}`, ""},
		{"POST", "/tenants/tnt-1/keys", "", ""},
		{"POST", "/tenants/tnt-1/suspend", "", ""},
		{"POST", "/keys/revoke", `{"key":"{key}"}`, ""},
		{"GET", "/usage?tenant=tnt-1", "", ""},
		{"DELETE", "/users", "", ""},
		{"GET", "//users/../global", "", ""},
	} {
		f.Add(seed.method, seed.path, seed.body, seed.key)
	}
	f.Fuzz(func(t *testing.T, method, path, body, key string) {
		s := newTenantService(nil, nil)
		tn, _ := s.CreateTenant("acme", Plan{MaxJoinRPS: 5, MaxConcurrentBroadcasts: 2})
		k, _ := s.IssueAPIKey(tn.ID)
		grant, _ := s.StartBroadcast(StartRequest{APIKey: k.Key, UserID: s.Register("host").ID})
		s.StartBroadcast(StartRequest{UserID: 1, Private: true, Allowed: []uint64{2}})
		body = strings.NewReplacer("{token}", grant.Token, "{key}", k.Key).Replace(body)
		key = strings.ReplaceAll(key, "{key}", k.Key)

		req, err := http.NewRequest(method, "http://control/api"+path, strings.NewReader(body))
		if err != nil {
			return // not a request a client could send
		}
		req.Header.Set(apiKeyHeader, key)
		rec := httptest.NewRecorder()
		Handler("/api", s).ServeHTTP(rec, req)

		code, ec := rec.Code, rec.Header().Get(errCodeHeader)
		switch {
		case code < 300, code == http.StatusBadRequest, code == http.StatusNotFound, code == http.StatusMethodNotAllowed:
		case code == http.StatusMovedPermanently && req.URL.Path != pathpkg.Clean(req.URL.Path):
		default:
			known := false
			for _, e := range errorTable {
				known = known || (ec != "" && ec == e.code && code == e.status)
			}
			if !known {
				t.Fatalf("%s %s (key %q, body %q): status %d, X-Control-Error %q", method, path, key, body, code, ec)
			}
		}
	})
}
