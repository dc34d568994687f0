package dispatch_test

import (
	"context"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"optspeed/client"
	"optspeed/internal/dispatch"
	"optspeed/internal/service"
	"optspeed/internal/sweep"
)

// TestClusterEndpoint covers GET /v2/cluster through the client SDK:
// a plain worker reports single mode; a coordinator reports its peers
// with live health verdicts, including an unhealthy one.
func TestClusterEndpoint(t *testing.T) {
	ctx := context.Background()

	worker := newWorker(t)
	wc, err := client.New(worker)
	if err != nil {
		t.Fatal(err)
	}
	st, err := wc.Cluster(ctx)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if st.Coordinator() || st.Mode != "single" || len(st.Peers) != 0 {
		t.Fatalf("worker reported %+v; want single mode with no peers", st)
	}

	peers := []string{newWorker(t), newFaultPeer(t, "http-500", -1)}
	coord, _ := newCoordinator(t, peers, 8)
	cc, err := client.New(coord)
	if err != nil {
		t.Fatal(err)
	}
	st, err = cc.Cluster(ctx)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if !st.Coordinator() || st.ShardSize != 8 {
		t.Fatalf("coordinator reported %+v", st)
	}
	if len(st.Peers) != 2 {
		t.Fatalf("got %d peers, want 2", len(st.Peers))
	}
	if !st.Peers[0].Healthy {
		t.Errorf("healthy worker probed unhealthy: %+v", st.Peers[0])
	}
	// The fault peer passes /healthz through, so it probes healthy; its
	// ledger is what records shard failures. Drive one sweep to fill it.
	if status, _ := postSweep(t, coord, equivalenceBodies[0].body); status != 200 {
		t.Fatalf("sweep status %d", status)
	}
	st, err = cc.Cluster(ctx)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	var failed int
	for _, p := range st.Peers {
		failed += p.ShardsFailed
		if p.ShardsFailed > 0 && p.LastError == "" {
			t.Errorf("peer %s failed shards without a recorded error", p.URL)
		}
	}
	if failed == 0 {
		t.Fatalf("fault peer's shard failures never reached the ledger: %+v", st.Peers)
	}
	if st.Shards.ShardsPlanned == 0 || st.Shards.ShardsRetried == 0 {
		t.Fatalf("scatter counters empty: %+v", st.Shards)
	}
}

// closeCounter is a caller-supplied transport that records whether
// anything asked it to close its idle connections.
type closeCounter struct {
	http.RoundTripper
	closes atomic.Int64
}

func (c *closeCounter) CloseIdleConnections() { c.closes.Add(1) }

// TestCloseReleasesOwnTransportOnly runs a health probe and remote
// shards, then requires Close to shut every pooled connection to the
// worker when the dispatcher built its own transport, and to leave a
// caller-supplied client alone. The probe goes first: it closes the
// connection it used, and the shards may all share one pooled
// connection, which a later probe could take and close.
func TestCloseReleasesOwnTransportOnly(t *testing.T) {
	srv := service.New(service.Config{Engine: sweep.New(sweep.Options{})})
	// The worker's reply goes out whole with a Content-Length, so the
	// dispatcher reads each shard to EOF and pools its connection every
	// time rather than only when the stream's last chunk was buffered.
	whole := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, r)
		maps.Copy(w.Header(), rec.Header())
		w.Header().Set("Content-Length", strconv.Itoa(rec.Body.Len()))
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	})
	var mu sync.Mutex
	open := map[net.Conn]bool{}
	ts := httptest.NewUnstartedServer(whole)
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch st {
		case http.StateNew:
			open[c] = true
		case http.StateClosed, http.StateHijacked:
			delete(open, c)
		}
	}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	openConns := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(open)
	}

	d := dispatch.New(dispatch.Options{Engine: sweep.New(sweep.Options{}), Peers: []string{ts.URL}, ShardSize: 4})
	d.ClusterStatus(context.Background())
	if _, err := d.Run(context.Background(), dispatch.Request{Space: testSpace(16, 24)}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if openConns() == 0 {
		t.Fatal("remote shards left no pooled connection to release")
	}
	d.Close()
	deadline := time.Now().Add(5 * time.Second)
	for openConns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d worker connections still open after Close", openConns())
		}
		time.Sleep(10 * time.Millisecond)
	}

	rt := &closeCounter{RoundTripper: http.DefaultTransport}
	d = dispatch.New(dispatch.Options{Engine: sweep.New(sweep.Options{}), Peers: []string{ts.URL},
		HTTPClient: &http.Client{Transport: rt}})
	d.Close()
	if n := rt.closes.Load(); n != 0 {
		t.Fatalf("Close touched the caller's client %d times", n)
	}
}

// TestShardConnectionsAreReused runs two shards one after the other
// against one streaming worker whose chunked terminator trails its done
// line, and requires both to travel over one connection: the dispatcher
// reads each shard body to EOF, so net/http pools the connection
// instead of closing it at the done line.
func TestShardConnectionsAreReused(t *testing.T) {
	srv := service.New(service.Config{Engine: sweep.New(sweep.Options{})})
	lateEnd := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(w, r) // flushes through the done line
		time.Sleep(20 * time.Millisecond)
	})
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(lateEnd)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	d := dispatch.New(dispatch.Options{Engine: sweep.New(sweep.Options{}), Peers: []string{ts.URL},
		ShardSize: 4, MaxInFlight: 1, Hedge: dispatch.HedgeConfig{Disable: true}})
	defer d.Close()
	if _, err := d.Run(context.Background(), dispatch.Request{Space: testSpace(16, 24)}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := d.Stats(); st.ShardsPlanned != 2 || st.ShardsRetried != 0 || st.ShardsFallback != 0 {
		t.Fatalf("shard stats %+v; want two shards, both served by the worker", st)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("two sequential shards opened %d connections; want 1", n)
	}
}
