package control

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/geo"
)

// The control plane's HTTP surface stands in for Periscope's HTTPS API: the
// one channel that IS authenticated and confidential in the real system.
// (We serve plain HTTP on loopback; the trust property we reproduce is that
// the §7 attacker taps only the RTMP/HLS data path, never this channel.)

type registerReq struct {
	Name string `json:"name"`
}

type registerResp struct {
	ID uint64 `json:"id"`
}

type startReq struct {
	UserID  uint64   `json:"user_id"`
	City    string   `json:"city"`
	Lat     float64  `json:"lat"`
	Lon     float64  `json:"lon"`
	Private bool     `json:"private,omitempty"`
	Allowed []uint64 `json:"allowed,omitempty"`
}

type endReq struct {
	Token string `json:"token"`
}

type pubKeyReq struct {
	Token     string `json:"token"`
	PubKeyHex string `json:"pubkey_hex"`
}

type pubKeyResp struct {
	PubKeyHex string `json:"pubkey_hex"`
}

type joinReq struct {
	UserID uint64  `json:"user_id"`
	City   string  `json:"city"`
	Lat    float64 `json:"lat"`
	Lon    float64 `json:"lon"`
}

type resolveEdgeResp struct {
	HLSBaseURL string `json:"hls_base_url"`
}

type globalResp struct {
	Broadcasts []summaryJSON `json:"broadcasts"`
}

// Tenancy API payloads. Plan carries the same JSON tags in the journal and
// on the wire, so the durable shape and the wire shape cannot drift apart.

type tenantCreateReq struct {
	Name string `json:"name"`
	Plan Plan   `json:"plan"`
}

type tenantsResp struct {
	Tenants []Tenant `json:"tenants"`
}

type keyIssueResp struct {
	Key string `json:"key"`
}

type keyRevokeReq struct {
	Key string `json:"key"`
}

type usageResp struct {
	TenantID string     `json:"tenant_id"`
	Days     []UsageDay `json:"days"`
}

type summaryJSON struct {
	BroadcastID string    `json:"broadcast_id"`
	Broadcaster uint64    `json:"broadcaster"`
	StartedAt   time.Time `json:"started_at"`
	EndedAt     time.Time `json:"ended_at,omitempty"`
	Live        bool      `json:"live"`
	Viewers     int       `json:"viewers"`
	City        string    `json:"city"`
}

func toSummaryJSON(s Summary) summaryJSON {
	return summaryJSON{
		BroadcastID: s.BroadcastID,
		Broadcaster: s.Broadcaster,
		StartedAt:   s.StartedAt,
		EndedAt:     s.EndedAt,
		Live:        s.Live,
		Viewers:     s.Viewers,
		City:        s.Location.City,
	}
}

func (b summaryJSON) summary() Summary {
	return Summary{
		BroadcastID: b.BroadcastID,
		Broadcaster: b.Broadcaster,
		StartedAt:   b.StartedAt,
		EndedAt:     b.EndedAt,
		Live:        b.Live,
		Viewers:     b.Viewers,
		Location:    geo.Location{City: b.City},
	}
}

// apiKeyHeader authenticates tenant-owned start/join requests. Presence of
// the header selects the key-authenticated path.
const apiKeyHeader = "X-API-Key"

// errCodeHeader disambiguates error statuses for the client: 403 is both
// "bad broadcast token" and "revoked key / suspended tenant", 401 both "not
// invited" and "bad API key". The body stays human-readable.
const errCodeHeader = "X-Control-Error"

// errBadRequest marks malformed input: 400, with no X-Control-Error code.
var errBadRequest = errors.New("control: bad request")

func badRequest(what string) error { return fmt.Errorf("%w: %s", errBadRequest, what) }

// errKeyedPrivate rejects a start that is both key-owned and private:
// private broadcasts are invite-keyed per user, not tenant-owned.
var errKeyedPrivate = badRequest("private broadcasts cannot be key-authenticated")

// errorTable is the one mapping between service errors and the wire: the
// server answers the first entry the error matches, and the client maps an
// X-Control-Error code (or, without one, the first entry with the status)
// back to the sentinel. Order matters for that status fallback: 404 means
// no_broadcast, 403 bad_token, 401 not_invited.
var errorTable = []struct {
	err    error
	code   string
	status int
}{
	{ErrNoBroadcast, "no_broadcast", http.StatusNotFound},
	{ErrNoTenant, "no_tenant", http.StatusNotFound},
	{ErrBadToken, "bad_token", http.StatusForbidden},
	{ErrKeyRevoked, "key_revoked", http.StatusForbidden},
	{ErrTenantSuspended, "tenant_suspended", http.StatusForbidden},
	{ErrNotInvited, "not_invited", http.StatusUnauthorized},
	{ErrBadAPIKey, "bad_api_key", http.StatusUnauthorized},
	// Quota and plan-rate rejections carry the server-computed wait in
	// Retry-After; FailoverPoller rides it via the RetryAfterHint on the
	// client's reconstructed QuotaError.
	{ErrQuotaExceeded, "quota", http.StatusTooManyRequests},
	{ErrEnded, "ended", http.StatusGone},
	// The crashed control plane's 503 is the degraded-mode trigger: clients
	// fall back to cached grants and retry with backoff.
	{ErrUnavailable, "unavailable", http.StatusServiceUnavailable},
	{errBadRequest, "", http.StatusBadRequest},
}

// respondErr writes err through errorTable and reports whether it did;
// errors outside the table are 500s.
func respondErr(w http.ResponseWriter, err error) bool {
	if err == nil {
		return false
	}
	status := http.StatusInternalServerError
	for _, e := range errorTable {
		if errors.Is(err, e.err) {
			status = e.status
			if e.code != "" {
				w.Header().Set(errCodeHeader, e.code)
			}
			break
		}
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		wait := time.Second
		var h interface{ RetryAfterHint() time.Duration }
		if errors.As(err, &h) {
			wait = h.RetryAfterHint()
		}
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
	}
	http.Error(w, err.Error(), status)
	return true
}

// errFromResponse reconstructs the service error from a non-200 response
// through errorTable: the X-Control-Error code when it names an entry, the
// status otherwise. A quota rejection comes back as a QuotaError carrying
// the Retry-After wait.
func errFromResponse(resp *http.Response) error {
	code := resp.Header.Get(errCodeHeader)
	for _, byCode := range []bool{true, false} {
		for _, e := range errorTable {
			if e.code == "" || (byCode && e.code != code) || (!byCode && e.status != resp.StatusCode) {
				continue
			}
			if e.err != ErrQuotaExceeded {
				return e.err
			}
			retry := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
				retry = time.Duration(s) * time.Second
			}
			return &QuotaError{Reason: "server quota rejection", RetryAfter: retry}
		}
	}
	return nil
}

// retryAfterSeconds rounds a wait up to whole seconds (the Retry-After unit),
// floor 1 so clients never busy-loop.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// endpoint serves one route: it returns the JSON response or an error for
// respondErr.
type endpoint func(r *http.Request) (any, error)

// withBody adapts an endpoint that takes a decoded JSON request body.
func withBody[Req any](fn func(r *http.Request, req Req) (any, error)) endpoint {
	return func(r *http.Request) (any, error) {
		var req Req
		body, err := io.ReadAll(io.LimitReader(r.Body, 64<<10))
		if err != nil || json.Unmarshal(body, &req) != nil {
			return nil, badRequest("bad request body")
		}
		return fn(r, req)
	}
}

// queryFloat parses an optional float query parameter: absent is 0,
// unparsable or non-finite is a bad request.
func queryFloat(q url.Values, name string) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, badRequest("bad " + name + " parameter")
	}
	return f, nil
}

// Handler exposes the service over HTTP under prefix (e.g. "/api"). Every
// route goes through one dispatch: a crashed service answers 503
// unavailable before any route runs, then the endpoint's result is encoded
// as JSON or its error written through errorTable.
func Handler(prefix string, s *Service) http.Handler {
	ok := struct{}{}
	routes := []struct {
		pattern string
		serve   endpoint
	}{
		{"POST /users", withBody(func(_ *http.Request, req registerReq) (any, error) {
			u, err := s.RegisterUser(req.Name)
			return registerResp{ID: u.ID}, err
		})},
		{"GET /global", func(*http.Request) (any, error) {
			list := s.GlobalList()
			out := make([]summaryJSON, 0, len(list))
			for _, b := range list {
				out = append(out, toSummaryJSON(b))
			}
			return globalResp{out}, nil
		}},
		{"POST /broadcasts", withBody(func(r *http.Request, req startReq) (any, error) {
			return s.StartBroadcast(StartRequest{
				APIKey:   r.Header.Get(apiKeyHeader),
				UserID:   req.UserID,
				Location: geo.Location{City: req.City, Lat: req.Lat, Lon: req.Lon},
				Private:  req.Private,
				Allowed:  req.Allowed,
			})
		})},
		{"GET /broadcasts/{id}", func(r *http.Request) (any, error) {
			info, err := s.Info(r.PathValue("id"))
			return toSummaryJSON(info), err
		}},
		{"POST /broadcasts/{id}/end", withBody(func(r *http.Request, req endReq) (any, error) {
			return ok, s.EndBroadcast(r.PathValue("id"), req.Token)
		})},
		{"POST /broadcasts/{id}/join", withBody(func(r *http.Request, req joinReq) (any, error) {
			return s.Join(JoinRequest{
				APIKey:      r.Header.Get(apiKeyHeader),
				UserID:      req.UserID,
				BroadcastID: r.PathValue("id"),
				Location:    geo.Location{City: req.City, Lat: req.Lat, Lon: req.Lon},
			})
		})},
		{"POST /broadcasts/{id}/pubkey", withBody(func(r *http.Request, req pubKeyReq) (any, error) {
			key, err := hex.DecodeString(req.PubKeyHex)
			if err != nil || len(key) != ed25519.PublicKeySize {
				return nil, badRequest("bad public key")
			}
			return ok, s.RegisterPublicKey(r.PathValue("id"), req.Token, key)
		})},
		{"GET /broadcasts/{id}/pubkey", func(r *http.Request) (any, error) {
			return pubKeyResp{PubKeyHex: hex.EncodeToString(s.PublicKey(r.PathValue("id")))}, nil
		}},
		{"GET /broadcasts/{id}/edge", func(r *http.Request) (any, error) {
			q := r.URL.Query()
			lat, err := queryFloat(q, "lat")
			if err != nil {
				return nil, err
			}
			lon, err := queryFloat(q, "lon")
			if err != nil {
				return nil, err
			}
			url, err := s.ResolveEdge(r.PathValue("id"), geo.Location{City: q.Get("city"), Lat: lat, Lon: lon})
			return resolveEdgeResp{HLSBaseURL: url}, err
		}},
		{"POST /tenants", withBody(func(_ *http.Request, req tenantCreateReq) (any, error) {
			return s.CreateTenant(req.Name, req.Plan)
		})},
		{"GET /tenants", func(*http.Request) (any, error) {
			return tenantsResp{s.Tenants()}, nil
		}},
		{"GET /tenants/{id}", func(r *http.Request) (any, error) {
			return s.TenantInfo(r.PathValue("id"))
		}},
		{"POST /tenants/{id}/plan", withBody(func(r *http.Request, req Plan) (any, error) {
			return ok, s.SetTenantPlan(r.PathValue("id"), req)
		})},
		{"POST /tenants/{id}/keys", func(r *http.Request) (any, error) {
			k, err := s.IssueAPIKey(r.PathValue("id"))
			return keyIssueResp{Key: k.Key}, err
		}},
		{"POST /tenants/{id}/suspend", func(r *http.Request) (any, error) {
			return ok, s.SuspendTenant(r.PathValue("id"))
		}},
		{"POST /tenants/{id}/resume", func(r *http.Request) (any, error) {
			return ok, s.ResumeTenant(r.PathValue("id"))
		}},
		{"POST /keys/revoke", withBody(func(_ *http.Request, req keyRevokeReq) (any, error) {
			return ok, s.RevokeAPIKey(req.Key)
		})},
		{"GET /usage", func(r *http.Request) (any, error) {
			tenantID := r.URL.Query().Get("tenant")
			if tenantID == "" {
				return nil, badRequest("missing tenant parameter")
			}
			days, err := s.Usage(tenantID)
			if days == nil {
				days = []UsageDay{}
			}
			return usageResp{TenantID: tenantID, Days: days}, err
		}},
	}
	mux := http.NewServeMux()
	for _, rt := range routes {
		method, path, _ := strings.Cut(rt.pattern, " ")
		serve := rt.serve
		mux.HandleFunc(method+" "+prefix+path, func(w http.ResponseWriter, r *http.Request) {
			if s.Down() {
				respondErr(w, ErrUnavailable)
				return
			}
			out, err := serve(r)
			if respondErr(w, err) {
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if err := json.NewEncoder(w).Encode(out); err != nil {
				_ = err // response already started
			}
		})
	}
	return mux
}

// Client is the app/crawler side of the control API.
type Client struct {
	// BaseURL includes the prefix, e.g. "http://ctrl:8080/api".
	BaseURL    string
	HTTPClient *http.Client
	// APIKey, when set, is attached as X-API-Key to every request, selecting
	// the key-authenticated (tenant-owned) start/join paths.
	APIKey string
}

// call sends one API request: in, when non-nil, is the JSON body; out, when
// non-nil, receives the JSON response. Non-200 answers come back as the
// service errors through errorTable.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.APIKey != "" {
		req.Header.Set(apiKeyHeader, c.APIKey)
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("control: %s %s: %w", method, req.URL.Path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if err := errFromResponse(resp); err != nil {
			return err
		}
		return fmt.Errorf("control: %s %s: status %d", method, req.URL.Path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Register creates a user.
func (c *Client) Register(ctx context.Context, name string) (uint64, error) {
	var resp registerResp
	err := c.call(ctx, http.MethodPost, "/users", registerReq{Name: name}, &resp)
	return resp.ID, err
}

// StartBroadcast opens a public broadcast for user at loc.
func (c *Client) StartBroadcast(ctx context.Context, userID uint64, loc geo.Location) (BroadcastGrant, error) {
	var g BroadcastGrant
	err := c.call(ctx, http.MethodPost, "/broadcasts",
		startReq{UserID: userID, City: loc.City, Lat: loc.Lat, Lon: loc.Lon}, &g)
	return g, err
}

// StartPrivateBroadcast opens an invite-only broadcast over RTMPS.
func (c *Client) StartPrivateBroadcast(ctx context.Context, userID uint64, loc geo.Location, allowed []uint64) (BroadcastGrant, error) {
	var g BroadcastGrant
	err := c.call(ctx, http.MethodPost, "/broadcasts", startReq{
		UserID: userID, City: loc.City, Lat: loc.Lat, Lon: loc.Lon,
		Private: true, Allowed: allowed,
	}, &g)
	return g, err
}

// EndBroadcast finishes a broadcast.
func (c *Client) EndBroadcast(ctx context.Context, broadcastID, token string) error {
	return c.call(ctx, http.MethodPost, "/broadcasts/"+broadcastID+"/end", endReq{Token: token}, nil)
}

// RegisterPublicKey uploads the §7.2 signing key over the secure channel.
func (c *Client) RegisterPublicKey(ctx context.Context, broadcastID, token string, pub ed25519.PublicKey) error {
	return c.call(ctx, http.MethodPost, "/broadcasts/"+broadcastID+"/pubkey",
		pubKeyReq{Token: token, PubKeyHex: hex.EncodeToString(pub)}, nil)
}

// PublicKey fetches a broadcast's signing key; empty means unsigned.
func (c *Client) PublicKey(ctx context.Context, broadcastID string) (ed25519.PublicKey, error) {
	var resp pubKeyResp
	if err := c.call(ctx, http.MethodGet, "/broadcasts/"+broadcastID+"/pubkey", nil, &resp); err != nil {
		return nil, err
	}
	if resp.PubKeyHex == "" {
		return nil, nil
	}
	key, err := hex.DecodeString(resp.PubKeyHex)
	if err != nil {
		return nil, err
	}
	return key, nil
}

// Join requests viewer access to a broadcast.
func (c *Client) Join(ctx context.Context, userID uint64, broadcastID string, loc geo.Location) (ViewerGrant, error) {
	var g ViewerGrant
	err := c.call(ctx, http.MethodPost, "/broadcasts/"+broadcastID+"/join",
		joinReq{UserID: userID, City: loc.City, Lat: loc.Lat, Lon: loc.Lon}, &g)
	return g, err
}

// ResolveEdge re-resolves the healthy HLS edge for a broadcast without
// recording a join — the failover path viewers take when their edge dies.
func (c *Client) ResolveEdge(ctx context.Context, broadcastID string, loc geo.Location) (string, error) {
	var resp resolveEdgeResp
	path := fmt.Sprintf("/broadcasts/%s/edge?city=%s&lat=%g&lon=%g",
		broadcastID, url.QueryEscape(loc.City), loc.Lat, loc.Lon)
	err := c.call(ctx, http.MethodGet, path, nil, &resp)
	return resp.HLSBaseURL, err
}

// GlobalList fetches the 50-random live list.
func (c *Client) GlobalList(ctx context.Context) ([]Summary, error) {
	var resp globalResp
	if err := c.call(ctx, http.MethodGet, "/global", nil, &resp); err != nil {
		return nil, err
	}
	out := make([]Summary, 0, len(resp.Broadcasts))
	for _, b := range resp.Broadcasts {
		out = append(out, b.summary())
	}
	return out, nil
}

// Info fetches one broadcast summary.
func (c *Client) Info(ctx context.Context, broadcastID string) (Summary, error) {
	var b summaryJSON
	err := c.call(ctx, http.MethodGet, "/broadcasts/"+broadcastID, nil, &b)
	return b.summary(), err
}

// CreateTenant registers a tenant (admin surface).
func (c *Client) CreateTenant(ctx context.Context, name string, plan Plan) (Tenant, error) {
	var t Tenant
	err := c.call(ctx, http.MethodPost, "/tenants", tenantCreateReq{Name: name, Plan: plan}, &t)
	return t, err
}

// IssueAPIKey mints a key for the tenant (admin surface).
func (c *Client) IssueAPIKey(ctx context.Context, tenantID string) (string, error) {
	var resp keyIssueResp
	err := c.call(ctx, http.MethodPost, "/tenants/"+tenantID+"/keys", struct{}{}, &resp)
	return resp.Key, err
}

// RevokeAPIKey invalidates a key (admin surface).
func (c *Client) RevokeAPIKey(ctx context.Context, key string) error {
	return c.call(ctx, http.MethodPost, "/keys/revoke", keyRevokeReq{Key: key}, nil)
}

// SuspendTenant blocks a tenant's key-authenticated calls (admin surface).
func (c *Client) SuspendTenant(ctx context.Context, tenantID string) error {
	return c.call(ctx, http.MethodPost, "/tenants/"+tenantID+"/suspend", struct{}{}, nil)
}

// ResumeTenant lifts a suspension (admin surface).
func (c *Client) ResumeTenant(ctx context.Context, tenantID string) error {
	return c.call(ctx, http.MethodPost, "/tenants/"+tenantID+"/resume", struct{}{}, nil)
}

// Usage fetches a tenant's per-day delivery rollups.
func (c *Client) Usage(ctx context.Context, tenantID string) ([]UsageDay, error) {
	var resp usageResp
	err := c.call(ctx, http.MethodGet, "/usage?tenant="+url.QueryEscape(tenantID), nil, &resp)
	return resp.Days, err
}
