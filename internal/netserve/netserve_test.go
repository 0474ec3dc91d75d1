package netserve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/dataset"
	"pimmine/internal/knn"
	"pimmine/internal/netserve"
	"pimmine/internal/serve"
	"pimmine/internal/vec"
)

// buildEngine makes a small sharded engine over a Table 6 dataset.
func buildEngine(t *testing.T, n, shards int, opts serve.Options) (*serve.Engine, *dataset.Dataset) {
	t.Helper()
	prof, err := dataset.ByName("MSD")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Generate(prof, n, 11)
	opts.Shards = shards
	eng, err := serve.New(ds.X, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ds
}

// renderDirect and renderWire print neighbors with float64 bits in hex,
// so "byte-identical to the direct engine call" is checked at full
// precision — JSON's shortest-form float64 encoding round-trips
// bit-exactly, and these renders prove the wire kept every bit.
func renderDirect(nn []vec.Neighbor) string {
	var b strings.Builder
	for _, n := range nn {
		fmt.Fprintf(&b, "%d:%016x;", n.Index, math.Float64bits(n.Dist))
	}
	return b.String()
}

func renderWire(nn []netserve.NeighborWire) string {
	var b strings.Builder
	for _, n := range nn {
		fmt.Fprintf(&b, "%d:%016x;", n.Index, math.Float64bits(n.Dist))
	}
	return b.String()
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	enc, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestWireDifferential proves wire results are byte-identical to direct
// engine calls: the same engine answers over HTTP and in-process, and
// every neighbor must match down to the float64 bit pattern, for the
// single endpoint and for every line of a streaming batch.
func TestWireDifferential(t *testing.T) {
	t.Parallel()
	eng, ds := buildEngine(t, 300, 3, serve.Options{})
	srv, err := netserve.New(netserve.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const k, nq = 7, 6
	queries := ds.Queries(nq, 21)
	direct := make([]string, nq)
	for i := 0; i < nq; i++ {
		res, err := eng.Search(context.Background(), queries.Row(i), k)
		if err != nil {
			t.Fatal(err)
		}
		direct[i] = renderDirect(res.Neighbors)
	}

	// Single-query endpoint.
	for i := 0; i < nq; i++ {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search", netserve.QueryRequest{
			Tenant: "diff", Query: queries.Row(i), K: k,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, resp.StatusCode, data)
		}
		var qr netserve.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := renderWire(qr.Neighbors); got != direct[i] {
			t.Fatalf("query %d: wire differs from direct call\nwire   %s\ndirect %s", i, got, direct[i])
		}
	}

	// Streaming batch: lines must arrive in query order, each
	// bit-identical to the direct call.
	qs := make([][]float64, nq)
	for i := range qs {
		qs[i] = queries.Row(i)
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search/batch", netserve.BatchRequest{
		Tenant: "diff", Queries: qs, K: k,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("batch content type %q", ct)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	line := 0
	for sc.Scan() {
		var bl netserve.BatchLine
		if err := json.Unmarshal(sc.Bytes(), &bl); err != nil {
			t.Fatalf("batch line %d: %v", line, err)
		}
		if bl.Index != line {
			t.Fatalf("batch line %d carries index %d (order broken)", line, bl.Index)
		}
		if bl.Error != nil || bl.Result == nil {
			t.Fatalf("batch line %d: unexpected error %+v", line, bl.Error)
		}
		if got := renderWire(bl.Result.Neighbors); got != direct[line] {
			t.Fatalf("batch line %d differs from direct call\nwire   %s\ndirect %s", line, got, direct[line])
		}
		line++
	}
	if line != nq {
		t.Fatalf("batch stream had %d lines, want %d", line, nq)
	}
}

// TestWireDifferentialH2C repeats the single-query differential over
// cleartext HTTP/2: same engine, same bits, multiplexed protocol.
func TestWireDifferentialH2C(t *testing.T) {
	t.Parallel()
	eng, ds := buildEngine(t, 200, 2, serve.Options{})
	srv, err := netserve.New(netserve.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	hs := srv.NewHTTPServer("")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	p := new(http.Protocols)
	p.SetUnencryptedHTTP2(true)
	client := &http.Client{Transport: &http.Transport{Protocols: p}}

	hresp, err := client.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.ProtoMajor != 2 {
		t.Fatalf("healthz served over %s, want HTTP/2 (body %s)", hresp.Proto, hbody)
	}

	const k = 5
	queries := ds.Queries(3, 31)
	for i := 0; i < queries.N; i++ {
		res, err := eng.Search(context.Background(), queries.Row(i), k)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postJSON(t, client, base+"/v1/search", netserve.QueryRequest{Query: queries.Row(i), K: k})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("h2c query %d: status %d: %s", i, resp.StatusCode, data)
		}
		if resp.ProtoMajor != 2 {
			t.Fatalf("h2c query %d served over %s", i, resp.Proto)
		}
		var qr netserve.QueryResponse
		if err := json.Unmarshal(data, &qr); err != nil {
			t.Fatal(err)
		}
		if got, want := renderWire(qr.Neighbors), renderDirect(res.Neighbors); got != want {
			t.Fatalf("h2c query %d: wire differs from direct\nwire   %s\ndirect %s", i, got, want)
		}
	}
}

// TestQuotaRetryAfter drives a provisioned tenant into its token bucket
// over a fake clock: the burst is admitted, the next request is a 429
// quota_exceeded whose Retry-After honestly covers the refill, and
// after the clock advances the tenant is served again. An unprovisioned
// tenant is never quota-limited.
func TestQuotaRetryAfter(t *testing.T) {
	t.Parallel()
	eng, ds := buildEngine(t, 120, 2, serve.Options{})
	now := time.Unix(1000, 0)
	var nowMu sync.Mutex
	clock := func() time.Time { nowMu.Lock(); defer nowMu.Unlock(); return now }
	advance := func(d time.Duration) { nowMu.Lock(); now = now.Add(d); nowMu.Unlock() }
	srv, err := netserve.New(netserve.Options{
		Engine:  eng,
		Tenants: []netserve.TenantConfig{{Name: "metered", Rate: 10, Burst: 2}},
		Now:     clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	q := ds.Queries(1, 41).Row(0)
	post := func(tenant string) (*http.Response, []byte) {
		return postJSON(t, ts.Client(), ts.URL+"/v1/search", netserve.QueryRequest{Tenant: tenant, Query: q, K: 3})
	}
	for i := 0; i < 2; i++ {
		if resp, data := post("metered"); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	resp, data := post("metered")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d: %s", resp.StatusCode, data)
	}
	var eb netserve.ErrorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Code != "quota_exceeded" {
		t.Fatalf("over-quota code = %q", eb.Code)
	}
	if eb.RetryAfterMs <= 0 {
		t.Fatalf("over-quota retry_after_ms = %d, want positive", eb.RetryAfterMs)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("over-quota Retry-After header = %q", ra)
	}
	// An unrelated tenant is not affected by metered's empty bucket.
	if resp, data := post("other"); resp.StatusCode != http.StatusOK {
		t.Fatalf("unmetered tenant status = %d: %s", resp.StatusCode, data)
	}
	// The refill makes the tenant whole again.
	advance(150 * time.Millisecond)
	if resp, data := post("metered"); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill status = %d: %s", resp.StatusCode, data)
	}
}

// TestAbandonedBatchSparesQuota: a client that abandons a batch after its
// first line stops the batch's dispatch, so the queries it never read
// take none of the tenant's quota. The quota clock is frozen, so only
// tokens left in the burst can admit the tenant's next query.
func TestAbandonedBatchSparesQuota(t *testing.T) {
	t.Parallel()
	const n = 4
	// The second search holds until the batch handler has returned.
	var calls atomic.Int64
	hold := make(chan struct{})
	factory := func(m *vec.Matrix, _ int) (knn.Searcher, error) {
		inner := knn.NewStandard(m)
		return knn.SearcherFunc("held", func(q []float64, k int, meter *arch.Meter) []vec.Neighbor {
			if calls.Add(1) == 2 {
				<-hold
			}
			return inner.Search(q, k, meter)
		}), nil
	}
	eng, ds := buildEngine(t, 120, 1, serve.Options{Factory: factory})
	srv, err := netserve.New(netserve.Options{
		Engine:   eng,
		Tenants:  []netserve.TenantConfig{{Name: "metered", Rate: 1, Burst: n}},
		Slots:    1,
		MaxQueue: 1,
		Now:      func() time.Time { return time.Unix(1000, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	batchDone := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(w, r)
		if r.URL.Path == "/v1/search/batch" {
			close(batchDone)
		}
	}))
	defer ts.Close()

	queries := ds.Queries(n, 41)
	qs := make([][]float64, n)
	for i := range qs {
		qs[i] = queries.Row(i)
	}
	body, err := json.Marshal(netserve.BatchRequest{Tenant: "metered", Queries: qs, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/search/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatalf("first batch line: %v", err)
	}
	cancel() // abandon the batch: the transport drops the connection
	resp.Body.Close()
	<-batchDone
	close(hold)

	single, data := postJSON(t, ts.Client(), ts.URL+"/v1/search", netserve.QueryRequest{Tenant: "metered", Query: qs[0], K: 3})
	if single.StatusCode != http.StatusOK {
		t.Fatalf("query after an abandoned batch: status %d: %s", single.StatusCode, data)
	}
}

// pacedFactory pins a per-shard service time so drain and fairness
// tests have genuinely in-flight work to race against.
func pacedFactory(delay time.Duration) serve.Factory {
	return func(m *vec.Matrix, _ int) (knn.Searcher, error) {
		inner := knn.NewStandard(m)
		return knn.SearcherFunc("paced", func(q []float64, k int, meter *arch.Meter) []vec.Neighbor {
			time.Sleep(delay)
			return inner.Search(q, k, meter)
		}), nil
	}
}

// TestDrainExactlyOnce hammers the server with concurrent single and
// streaming-batch requests while Drain fires mid-flight, pinning the
// exactly-once dispatch contract: every request either completes fully
// (200 with a complete, valid body — all batch lines present) or is
// refused with the typed 503; nothing is dropped mid-stream, and after
// drain the engine is closed and new arrivals get the draining verdict.
// Run under -race in CI (build-and-test).
func TestDrainExactlyOnce(t *testing.T) {
	t.Parallel()
	eng, ds := buildEngine(t, 80, 2, serve.Options{
		Factory: pacedFactory(raceScale * 200 * time.Microsecond),
	})
	srv, err := netserve.New(netserve.Options{Engine: eng, Slots: 4, MaxQueue: 64})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const k = 3
	queries := ds.Queries(4, 51)
	qs := make([][]float64, queries.N)
	for i := range qs {
		qs[i] = queries.Row(i)
	}

	var stop atomic.Bool
	var completed, drained atomic.Int64
	fail := make(chan string, 32)
	var wg sync.WaitGroup

	single := func(c int) {
		defer wg.Done()
		for !stop.Load() {
			resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search",
				netserve.QueryRequest{Tenant: fmt.Sprintf("s%d", c), Query: qs[c%len(qs)], K: k})
			switch resp.StatusCode {
			case http.StatusOK:
				var qr netserve.QueryResponse
				if err := json.Unmarshal(data, &qr); err != nil || len(qr.Neighbors) != k {
					fail <- fmt.Sprintf("single: truncated 200 body: %v %s", err, data)
					return
				}
				completed.Add(1)
			case http.StatusServiceUnavailable:
				var eb netserve.ErrorBody
				if err := json.Unmarshal(data, &eb); err != nil || eb.Code != "draining" {
					fail <- fmt.Sprintf("single: 503 without draining verdict: %s", data)
					return
				}
				drained.Add(1)
			default:
				fail <- fmt.Sprintf("single: unexpected status %d: %s", resp.StatusCode, data)
				return
			}
		}
	}
	batch := func(c int) {
		defer wg.Done()
		for !stop.Load() {
			resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search/batch",
				netserve.BatchRequest{Tenant: fmt.Sprintf("b%d", c), Queries: qs, K: k})
			switch resp.StatusCode {
			case http.StatusOK:
				// Exactly-once: a batch admitted before drain must deliver
				// every line even though drain began mid-stream.
				sc := bufio.NewScanner(bytes.NewReader(data))
				lines := 0
				for sc.Scan() {
					var bl netserve.BatchLine
					if err := json.Unmarshal(sc.Bytes(), &bl); err != nil || bl.Index != lines || bl.Result == nil {
						fail <- fmt.Sprintf("batch: bad line %d: %v %s", lines, err, sc.Bytes())
						return
					}
					lines++
				}
				if lines != len(qs) {
					fail <- fmt.Sprintf("batch: stream truncated at %d/%d lines", lines, len(qs))
					return
				}
				completed.Add(1)
			case http.StatusServiceUnavailable:
				drained.Add(1)
			default:
				fail <- fmt.Sprintf("batch: unexpected status %d: %s", resp.StatusCode, data)
				return
			}
		}
	}
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go single(c)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go batch(c)
	}

	time.Sleep(raceScale * 20 * time.Millisecond)
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	stop.Store(true)
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}
	if completed.Load() == 0 {
		t.Fatal("no request completed before drain — the race never raced")
	}

	// Post-drain: typed verdicts everywhere.
	if _, err := eng.Search(context.Background(), qs[0], k); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("engine after drain err = %v, want ErrClosed", err)
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/search",
		netserve.QueryRequest{Query: qs[0], K: k})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain search status = %d: %s", resp.StatusCode, data)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz status = %d", hresp.StatusCode)
	}
	// Drain is idempotent.
	if err := srv.Drain(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestBodyTooLarge pins the size cap's verdict: a body one byte over
// MaxBodyBytes is a typed 413 whether the length was declared (refused
// before a byte is read) or the body arrived chunked (found while
// reading), and a body exactly at the cap is served either way.
func TestBodyTooLarge(t *testing.T) {
	t.Parallel()
	eng, ds := buildEngine(t, 60, 2, serve.Options{})
	atCap, err := json.Marshal(netserve.QueryRequest{Query: ds.Queries(1, 5).Row(0), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := netserve.New(netserve.Options{Engine: eng, MaxBodyBytes: int64(len(atCap))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Drain()

	over := append(bytes.Clone(atCap), ' ') // still the same valid request
	for _, tc := range []struct {
		name    string
		body    []byte
		chunked bool
		status  int
	}{
		{"declared, at the cap", atCap, false, http.StatusOK},
		{"chunked, at the cap", atCap, true, http.StatusOK},
		{"declared, one byte over", over, false, http.StatusRequestEntityTooLarge},
		{"chunked, one byte over", over, true, http.StatusRequestEntityTooLarge},
	} {
		var body io.Reader = bytes.NewReader(tc.body)
		if tc.chunked {
			body = io.MultiReader(body) // hides the length from http.NewRequest
		}
		resp, err := ts.Client().Post(ts.URL+"/v1/search", "application/json", body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, data)
		}
		var eb netserve.ErrorBody
		if tc.status != http.StatusOK && (json.Unmarshal(data, &eb) != nil || eb.Code != "body_too_large") {
			t.Errorf("%s: error body %s, want code body_too_large", tc.name, data)
		}
	}
}
