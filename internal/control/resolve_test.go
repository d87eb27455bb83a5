package control

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/testutil"
)

func TestResolveEdgeDoesNotRecordJoin(t *testing.T) {
	s := newTestService()
	u := s.Register("b")
	g, err := s.StartBroadcast(StartRequest{UserID: u.ID, Location: geo.Location{City: "NYC"}})
	if err != nil {
		t.Fatal(err)
	}
	url, err := s.ResolveEdge(g.BroadcastID, geo.Location{City: "SF"})
	if err != nil || url != "http://edge-1/hls" {
		t.Fatalf("ResolveEdge = %q, %v", url, err)
	}
	info, _ := s.Info(g.BroadcastID)
	if info.Viewers != 0 {
		t.Fatalf("Viewers = %d after ResolveEdge, want 0 (no join recorded)", info.Viewers)
	}
	if _, err := s.ResolveEdge("missing", geo.Location{}); !errors.Is(err, ErrNoBroadcast) {
		t.Fatalf("missing broadcast err = %v", err)
	}
}

func TestResolveEdgeWorksAfterBroadcastEnds(t *testing.T) {
	s := newTestService()
	u := s.Register("b")
	g, _ := s.StartBroadcast(StartRequest{UserID: u.ID})
	if err := s.EndBroadcast(g.BroadcastID, g.Token); err != nil {
		t.Fatal(err)
	}
	// Join refuses ended broadcasts, but a viewer mid-replay must still be
	// able to re-resolve its edge.
	if _, err := s.Join(JoinRequest{UserID: 1, BroadcastID: g.BroadcastID}); !errors.Is(err, ErrEnded) {
		t.Fatalf("Join after end = %v, want ErrEnded", err)
	}
	if url, err := s.ResolveEdge(g.BroadcastID, geo.Location{}); err != nil || url == "" {
		t.Fatalf("ResolveEdge after end = %q, %v, want success", url, err)
	}
}

func TestResolveEdgeHTTPRoundTrip(t *testing.T) {
	testutil.CheckGoroutines(t)
	var mu sync.Mutex
	var gotLoc geo.Location
	s := NewService(Config{
		Routes: Routes{
			AssignOrigin: func(geo.Location) (string, string) { return "o1", "addr" },
			AssignEdge: func(id string, loc geo.Location) string {
				mu.Lock()
				gotLoc = loc
				mu.Unlock()
				return "http://edge-2/hls"
			},
		},
	})
	srv := httptest.NewServer(Handler("/api", s))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL + "/api"}
	ctx := context.Background()

	u := s.Register("b")
	g, _ := s.StartBroadcast(StartRequest{UserID: u.ID})
	url, err := client.ResolveEdge(ctx, g.BroadcastID, geo.Location{City: "São Paulo", Lat: -23.55, Lon: -46.63})
	if err != nil || url != "http://edge-2/hls" {
		t.Fatalf("ResolveEdge = %q, %v", url, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotLoc.City != "São Paulo" || gotLoc.Lat != -23.55 || gotLoc.Lon != -46.63 {
		t.Fatalf("location did not survive the query string: %+v", gotLoc)
	}
	if _, err := client.ResolveEdge(ctx, "missing", geo.Location{}); !errors.Is(err, ErrNoBroadcast) {
		t.Fatalf("missing broadcast err = %v", err)
	}
}
