package netserve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pimmine/internal/dataset"
	"pimmine/internal/netserve"
	"pimmine/internal/serve"
)

// buildMutableServer makes a mutable engine over a Table 6 dataset and
// a server fronting it.
func buildMutableServer(t *testing.T, n, shards int) (*netserve.Server, *serve.MutableEngine, *httptest.Server, *dataset.Dataset) {
	t.Helper()
	prof, err := dataset.ByName("MSD")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Generate(prof, n, 17)
	eng, err := serve.NewMutable(ds.X, serve.MutableOptions{
		Options:        serve.Options{Shards: shards, Workers: 2},
		StandingBuffer: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netserve.New(netserve.Options{Mutable: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, eng, ts, ds
}

// subscribeStream opens /v1/subscribe and returns the live response and
// a line scanner over the NDJSON stream.
func subscribeStream(t *testing.T, ts *httptest.Server, req netserve.SubscribeRequest) (*http.Response, *bufio.Scanner) {
	t.Helper()
	enc, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp, bufio.NewScanner(resp.Body)
}

// TestSubscribeStreamDifferential pins the subscription stream to the
// in-process engine: the init line matches a one-shot search bit for
// bit, and after an insert that enters the view, the update line
// matches the new one-shot answer.
func TestSubscribeStreamDifferential(t *testing.T) {
	t.Parallel()
	_, eng, ts, ds := buildMutableServer(t, 200, 2)
	q := ds.Queries(1, 31).Row(0)
	const k = 5

	resp, sc := subscribeStream(t, ts, netserve.SubscribeRequest{Query: q, K: k, MaxEvents: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !sc.Scan() {
		t.Fatalf("no init line: %v", sc.Err())
	}
	var init netserve.EventLine
	if err := json.Unmarshal(sc.Bytes(), &init); err != nil {
		t.Fatal(err)
	}
	if init.Kind != "init" || init.Seq != 0 || init.Trigger != -1 {
		t.Fatalf("init line = %+v", init)
	}
	oneShot, err := eng.Search(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderWire(init.Neighbors), renderDirect(oneShot.Neighbors); got != want {
		t.Fatalf("init view differs from one-shot:\n got %s\nwant %s", got, want)
	}

	// Insert the query vector itself: distance 0 must enter the view and
	// produce an update line carrying the new one-shot answer.
	id, err := eng.Insert(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatalf("no update line: %v", sc.Err())
	}
	var up netserve.EventLine
	if err := json.Unmarshal(sc.Bytes(), &up); err != nil {
		t.Fatal(err)
	}
	if up.Kind != "update" || up.Trigger != id || up.Seq != 1 {
		t.Fatalf("update line = %+v, want update on %d", up, id)
	}
	oneShot, err = eng.Search(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderWire(up.Neighbors), renderDirect(oneShot.Neighbors); got != want {
		t.Fatalf("update view differs from one-shot:\n got %s\nwant %s", got, want)
	}
	// MaxEvents: the stream closed itself after two lines.
	if sc.Scan() {
		t.Fatalf("stream outlived max_events: %s", sc.Text())
	}
}

// TestSubscribeRadiusAndValidation covers the radius watch on the wire
// and the decoder's 400 verdicts.
func TestSubscribeRadiusAndValidation(t *testing.T) {
	t.Parallel()
	_, eng, ts, ds := buildMutableServer(t, 60, 2)
	q := ds.Queries(1, 33).Row(0)

	resp, sc := subscribeStream(t, ts, netserve.SubscribeRequest{Query: q, Radius: 0.05, MaxEvents: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	id, err := eng.Insert(q) // distance 0: inside any radius
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatalf("no match line: %v", sc.Err())
	}
	var ev netserve.EventLine
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != "match" || ev.Trigger != id || ev.Dist != 0 || len(ev.Neighbors) != 0 {
		t.Fatalf("match line = %+v, want zero-distance match on %d", ev, id)
	}

	bad := []netserve.SubscribeRequest{
		{Query: q},                      // neither k nor radius
		{Query: q, K: 3, Radius: 1},     // both
		{Query: q, K: 100000},           // k over cap
		{Query: q, Radius: -1},          // negative radius
		{Query: q[:3], K: 3},            // wrong dims
		{Query: q, K: 3, MaxEvents: -1}, // negative max_events
		{Query: nil, Radius: 0.5},       // missing query
	}
	for i, req := range bad {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/subscribe", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
}

// TestSubscribeDrainEndsStreams is the drain discipline: an open
// unbounded stream must end promptly when Drain begins, Drain must
// return (closing the engine), and repeated Drain must report the same
// outcome.
func TestSubscribeDrainEndsStreams(t *testing.T) {
	t.Parallel()
	srv, _, ts, ds := buildMutableServer(t, 60, 2)
	q := ds.Queries(1, 35).Row(0)

	resp, sc := subscribeStream(t, ts, netserve.SubscribeRequest{Query: q, K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	if !sc.Scan() { // init line proves the stream is live
		t.Fatalf("no init line: %v", sc.Err())
	}
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not finish while a subscription stream was open")
	}
	for sc.Scan() {
		// Drain may not race ahead of buffered lines; drain them.
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("second Drain = %v (must repeat the first outcome)", err)
	}
	// New subscriptions after drain are refused.
	enc, _ := json.Marshal(netserve.SubscribeRequest{Query: q, K: 3})
	r2, err := ts.Client().Post(ts.URL+"/v1/subscribe", "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("subscribe after drain: status %d", r2.StatusCode)
	}
}

// TestMutableWireSearch proves the search endpoints work unchanged over
// Options.Mutable, including through churn.
func TestMutableWireSearch(t *testing.T) {
	t.Parallel()
	_, eng, ts, ds := buildMutableServer(t, 150, 3)
	if _, err := netserve.New(netserve.Options{}); err == nil {
		t.Fatal("New with no engine accepted")
	}
	q := ds.Queries(1, 37).Row(0)
	const k = 6
	check := func(phase string) {
		t.Helper()
		direct, err := eng.Search(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search", netserve.QueryRequest{Query: q, K: k})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", phase, resp.StatusCode, data)
		}
		var qr netserve.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		if got, want := renderWire(qr.Neighbors), renderDirect(direct.Neighbors); got != want {
			t.Fatalf("%s: wire differs from direct:\n got %s\nwant %s", phase, got, want)
		}
	}
	check("initial")
	for i := 0; i < 10; i++ {
		if _, err := eng.Insert(ds.Queries(1, int64(40+i)).Row(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Delete(3); err != nil {
		t.Fatal(err)
	}
	check("after churn")
}

// TestSubscribeOnlyWhenServedMutable pins the wire contract to the
// Options field, not the engine type: one engine passed as
// Options.Engine mounts no /v1/subscribe and reports "mutable": false,
// and passed as Options.Mutable streams subscriptions and reports true.
func TestSubscribeOnlyWhenServedMutable(t *testing.T) {
	t.Parallel()
	prof, err := dataset.ByName("MSD")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Generate(prof, 60, 17)
	eng, err := serve.New(ds.X, serve.Options{Shards: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	q := ds.Queries(1, 31).Row(0)
	for _, mutable := range []bool{false, true} {
		opts := netserve.Options{Engine: eng}
		if mutable {
			opts = netserve.Options{Mutable: eng}
		}
		srv, err := netserve.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()

		resp, err := ts.Client().Get(ts.URL + "/v1/info")
		if err != nil {
			t.Fatal(err)
		}
		var info struct {
			Mutable bool `json:"mutable"`
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if info.Mutable != mutable {
			t.Errorf("served as Mutable=%v: /v1/info mutable = %v", mutable, info.Mutable)
		}

		resp, sc := subscribeStream(t, ts, netserve.SubscribeRequest{Query: q, K: 3, MaxEvents: 1})
		if !mutable {
			if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("served as Engine: /v1/subscribe status %d, want 404 or 405", resp.StatusCode)
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("served as Mutable: /v1/subscribe status %d", resp.StatusCode)
		}
		if !sc.Scan() {
			t.Fatalf("served as Mutable: no init line: %v", sc.Err())
		}
		var init netserve.EventLine
		if err := json.Unmarshal(sc.Bytes(), &init); err != nil {
			t.Fatal(err)
		}
		if init.Kind != "init" || len(init.Neighbors) != 3 {
			t.Errorf("served as Mutable: init line = %+v, want kind init with 3 neighbors", init)
		}
	}
}
