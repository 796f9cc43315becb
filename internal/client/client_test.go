package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wdmlat/internal/api"
)

// testClient returns a client whose sleeps are recorded instead of slept
// and whose jitter is pinned to its maximum (Rand()==1 → delay exactly d).
func testClient(base string) (*Client, *[]time.Duration) {
	var mu sync.Mutex
	var slept []time.Duration
	c := New(base, Options{
		Rand: func() float64 { return 1 },
		Sleep: func(_ context.Context, d time.Duration) error {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
			return nil
		},
	})
	return c, &slept
}

func TestSubmitRetries429HonoringRetryAfter(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n <= 2 {
			w.Header().Set("Retry-After", "3")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(api.Error{Message: "queue full"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.Status{ID: "abc", State: api.StateQueued})
	}))
	defer srv.Close()

	c, slept := testClient(srv.URL)
	st, err := c.Submit(context.Background(), &api.CampaignSpec{})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.ID != "abc" {
		t.Fatalf("status = %+v", st)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("want 3 attempts, got %d", got)
	}
	if len(*slept) != 2 {
		t.Fatalf("want 2 backoff sleeps, got %v", *slept)
	}
	for i, d := range *slept {
		// Retry-After: 3 dominates the 100–200ms exponential schedule.
		if d < 3*time.Second {
			t.Errorf("sleep %d = %v ignored Retry-After of 3s", i, d)
		}
	}
}

func TestRetryOn500AndConnectionReset(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(api.Error{Message: "boom"})
		case 2:
			// Drop the connection mid-response: the client sees a
			// transport error, not a status.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("recorder cannot hijack")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatalf("hijack: %v", err)
			}
			conn.Close()
		default:
			json.NewEncoder(w).Encode(api.Status{ID: "ok", State: api.StateDone})
		}
	}))
	defer srv.Close()

	c, slept := testClient(srv.URL)
	st, err := c.Status(context.Background(), "ok")
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.ID != "ok" || calls.Load() != 3 {
		t.Fatalf("st=%+v calls=%d", st, calls.Load())
	}
	// The 500 always costs one client-level backoff. The dropped
	// connection is retried either by the client loop (second sleep) or
	// transparently by net/http's idempotent-GET replay (no sleep) —
	// both are acceptable, silent failure is not.
	if n := len(*slept); n < 1 || n > 2 {
		t.Fatalf("want 1 or 2 sleeps, got %v", *slept)
	}
}

func TestBackoffGrowsExponentiallyAndCaps(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c, slept := testClient(srv.URL)
	_, err := c.Status(context.Background(), "x")
	if err == nil {
		t.Fatal("want exhaustion error")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("want wrapped 503 StatusError, got %v", err)
	}
	// Rand pinned to 1 → delay n is exactly min(100ms·2ⁿ, 5s), and the 8
	// attempts sleep 7 times.
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 3200 * time.Millisecond, 5 * time.Second,
	}
	if len(*slept) != len(want) {
		t.Fatalf("want %d sleeps, got %v", len(want), *slept)
	}
	for i, d := range *slept {
		if d != want[i] {
			t.Errorf("sleep %d = %v, want %v", i, d, want[i])
		}
	}
}

func TestJitterStaysWithinHalfWindow(t *testing.T) {
	c := New("http://unused", Options{Rand: func() float64 { return 0 }})
	if d := c.backoff(0, 0); d != 50*time.Millisecond {
		t.Errorf("zero jitter floor = %v, want 50ms (half the window, never ~0)", d)
	}
	c = New("http://unused", Options{Rand: func() float64 { return 0.999999 }})
	if d := c.backoff(0, 0); d < 50*time.Millisecond || d > 100*time.Millisecond {
		t.Errorf("max jitter = %v, want within (50ms, 100ms]", d)
	}
}

func TestNonRetryableStatusFailsFast(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(api.Error{Message: "unknown campaign"})
	}))
	defer srv.Close()

	c, slept := testClient(srv.URL)
	_, err := c.Status(context.Background(), "nope")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("want 404 StatusError, got %v", err)
	}
	if calls.Load() != 1 || len(*slept) != 0 {
		t.Fatalf("404 was retried: calls=%d sleeps=%v", calls.Load(), *slept)
	}
}

func TestWatchResumesAfterDisconnect(t *testing.T) {
	// The stream drops after two events; the resumed connection must ask
	// for from=2 and deliver the rest exactly once.
	events := []api.Event{
		{Seq: 0, Type: api.EventState, State: api.StateQueued, Total: 2},
		{Seq: 1, Type: api.EventCell, Key: "a", Done: 1, Total: 2},
		{Seq: 2, Type: api.EventCell, Key: "b", Done: 2, Total: 2},
		{Seq: 3, Type: api.EventState, State: api.StateDone, Done: 2, Total: 2},
	}
	var mu sync.Mutex
	var froms []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/campaigns/job1" {
			json.NewEncoder(w).Encode(api.Status{ID: "job1", State: api.StateDone, Done: 2, Total: 2})
			return
		}
		from := r.URL.Query().Get("from")
		mu.Lock()
		froms = append(froms, from)
		nconn := len(froms)
		mu.Unlock()
		start := 0
		fmt.Sscanf(from, "%d", &start)
		end := len(events)
		if nconn == 1 {
			end = 2 // first connection drops early
		}
		enc := json.NewEncoder(w)
		for _, ev := range events[start:end] {
			enc.Encode(ev)
		}
		// Returning without a terminal event closes the stream (EOF).
	}))
	defer srv.Close()

	c, _ := testClient(srv.URL)
	var got []api.Event
	st, err := c.Watch(context.Background(), "job1", func(ev api.Event) { got = append(got, ev) })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if st.State != api.StateDone {
		t.Fatalf("final status = %+v", st)
	}
	if len(froms) != 2 || froms[0] != "0" || froms[1] != "2" {
		t.Fatalf("resume offsets = %v, want [0 2]", froms)
	}
	if len(got) != len(events) {
		t.Fatalf("delivered %d events, want %d: %+v", len(got), len(events), got)
	}
	for i, ev := range got {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d (duplicate or gap)", i, ev.Seq)
		}
	}
}

// TestWatchKeepsGoingWhileStreamsMakeProgress: a server that sends one new
// event per connection and then drops it makes progress on every
// connection, so the watch outlasts more than 8 dropped streams and
// returns done.
func TestWatchKeepsGoingWhileStreamsMakeProgress(t *testing.T) {
	const total = 12
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/campaigns/job1" {
			json.NewEncoder(w).Encode(api.Status{ID: "job1", State: api.StateDone})
			return
		}
		from, _ := strconv.Atoi(r.URL.Query().Get("from"))
		ev := api.Event{Seq: from, Type: api.EventCell}
		if from == total-1 {
			ev = api.Event{Seq: from, Type: api.EventState, State: api.StateDone}
		}
		json.NewEncoder(w).Encode(ev)
	}))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, _ := testClient(srv.URL)
	delivered := 0
	st, err := c.Watch(ctx, "job1", func(api.Event) { delivered++ })
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	if st.State != api.StateDone || delivered != total {
		t.Fatalf("status %+v after %d events, want done after %d", st, delivered, total)
	}
}

func TestWatchGivesUpAfterRepeatedFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer srv.Close()
	c, _ := testClient(srv.URL)
	_, err := c.Watch(context.Background(), "x", nil)
	if err == nil {
		t.Fatal("want error after retries exhausted")
	}
}
