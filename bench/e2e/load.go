package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"pimmine/internal/netserve"
	"pimmine/internal/vec"
)

// encodeBody renders the request carrying pool query i, as a client of
// pimserve would send it.
func encodeBody(in *inputs, i int) ([]byte, error) {
	if in.w.batch == 0 {
		return json.Marshal(netserve.QueryRequest{Query: in.pool.Row(i), K: topK})
	}
	qs := make([][]float64, in.w.batch)
	for j := range qs {
		qs[j] = in.pool.Row((i + j) % poolSize)
	}
	return json.Marshal(netserve.BatchRequest{Queries: qs, K: topK})
}

// serve starts a real loopback listener in front of the stack's handler.
func (st *stack) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.hs = st.srv.NewHTTPServer("")
	st.hs.Handler = st.handler
	st.url = "http://" + ln.Addr().String()
	st.served = make(chan struct{})
	go func() {
		defer close(st.served)
		_ = st.hs.Serve(ln) // always http.ErrServerClosed after close()
	}()
	return nil
}

func (st *stack) path() string {
	if st.in.w.batch > 0 {
		return st.url + "/v1/search/batch"
	}
	return st.url + "/v1/search"
}

// conn is one closed-loop client: its own transport, so exactly one
// HTTP/1.1 keep-alive connection.
type conn struct {
	hc *http.Client
}

func newConns(n int) []*conn {
	cs := make([]*conn, n)
	for i := range cs {
		cs[i] = &conn{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
	}
	return cs
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// post sends one request and reads the whole reply.
func (c *conn) post(url string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// checker decides whether the answer to pool query i is right.
type checker func(i int, got []netserve.NeighborWire) error

// exactly compares against precomputed truth by index and distance bits.
func exactly(truth [][]vec.Neighbor) checker {
	return func(i int, got []netserve.NeighborWire) error {
		want := truth[i]
		if len(got) != len(want) {
			return fmt.Errorf("query %d: %d neighbours, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j].Index != want[j].Index || math.Float64bits(got[j].Dist) != math.Float64bits(want[j].Dist) {
				return fmt.Errorf("query %d rank %d: got (%d, %v), want (%d, %v)",
					i, j, got[j].Index, got[j].Dist, want[j].Index, want[j].Dist)
			}
		}
		return nil
	}
}

// wellFormed is what can be checked while a writer runs beside the
// reader: k neighbours in canonical (distance, index) order. Exactness
// under churn is checked with the writer quiesced (see churn.go).
func wellFormed(_ int, got []netserve.NeighborWire) error {
	if len(got) != topK {
		return fmt.Errorf("%d neighbours, want %d", len(got), topK)
	}
	for j := 1; j < len(got); j++ {
		a, b := got[j-1], got[j]
		if a.Dist > b.Dist || (a.Dist == b.Dist && a.Index >= b.Index) {
			return fmt.Errorf("rank %d out of (distance, index) order", j)
		}
	}
	return nil
}

// verify decodes one reply and checks every answer in it; it returns how
// many queries the reply answered correctly and the first error.
func verify(in *inputs, i int, reply []byte, check checker) (int, error) {
	if in.w.batch == 0 {
		var r netserve.QueryResponse
		if err := json.Unmarshal(reply, &r); err != nil {
			return 0, err
		}
		if err := check(i, r.Neighbors); err != nil {
			return 0, err
		}
		return 1, nil
	}
	ok := 0
	var first error
	dec := json.NewDecoder(bytes.NewReader(reply))
	for j := 0; j < in.w.batch; j++ {
		var line netserve.BatchLine
		err := dec.Decode(&line)
		switch {
		case err != nil:
		case line.Error != nil:
			err = fmt.Errorf("line %d: %s", j, line.Error.Error)
		case line.Result == nil || line.Index != j:
			err = fmt.Errorf("line %d: malformed", j)
		default:
			err = check((i+j)%poolSize, line.Result.Neighbors)
		}
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		ok++
	}
	return ok, first
}

// sample is one completed request.
type sample struct {
	latency time.Duration
	// client is what the load generator itself spent on the reply
	// (decode + check), outside latency.
	client time.Duration
	// ok is the number of verified answers (queries, not requests).
	ok int
	// ref is the reference work run right after the reply: how fast the
	// box was at that moment.
	ref time.Duration
	// cycle is one turn of the closed loop: send, reply, check, reference. A window's cycles add up to its elapsed time.
	cycle time.Duration
}

// window is one timed segment of closed-loop load.
type window struct {
	// conns is how many connections drove it, each a closed loop.
	conns   int
	elapsed time.Duration
	// cpuShare is the process's CPU time over elapsed: what is missing is
	// the time the client spent parked waiting for the server (the same in
	// every window) and the time the hypervisor gave the CPU to a
	// neighbour (not the same at all).
	cpuShare  float64
	samples   []sample
	attempted int // queries
	failed    int
	firstErr  error
}

// perRequest is how many queries one request carries.
func (in *inputs) perRequest() int {
	if in.w.batch > 0 {
		return in.w.batch
	}
	return 1
}

// runWindow drives every connection of cs in a closed loop of its own
// for dur: a connection's next request is sent only after its previous
// reply is verified. Connection j starts j/len(cs) of the way into the
// pool, so no two ask the same query at once. rec non-nil (one connection
// only) records a wire.request span per request.
func (st *stack) runWindow(cs []*conn, dur time.Duration, check checker, rec *recorder) window {
	parts := make([]window, len(cs))
	start, cpu := time.Now(), cpuTime()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for j := 1; j < len(cs); j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[j] = st.loop(cs[j], j*poolSize/len(cs), deadline, check, nil)
		}()
	}
	parts[0] = st.loop(cs[0], 0, deadline, check, rec)
	wg.Wait()
	w := window{conns: len(cs), elapsed: time.Since(start)}
	w.cpuShare = float64(cpuTime()-cpu) / float64(w.elapsed)
	for _, p := range parts {
		w.samples = append(w.samples, p.samples...)
		w.attempted += p.attempted
		w.failed += p.failed
		if w.firstErr == nil {
			w.firstErr = p.firstErr
		}
	}
	return w
}

// loop is one connection's closed loop until deadline, from pool query
// first on.
func (st *stack) loop(c *conn, first int, deadline time.Time, check checker, rec *recorder) window {
	url := st.path()
	in := st.in
	var w window
	for i := first; time.Now().Before(deadline); i++ {
		qi := i % poolSize
		t0 := time.Now()
		reply, err := c.post(url, in.bodies[qi])
		t1 := time.Now()
		ok := 0
		if err == nil {
			ok, err = verify(in, qi, reply, check)
		}
		t2 := time.Now()
		if rec != nil {
			rec.add(spanRequest, int64(t0.Sub(rec.epoch)), int64(t1.Sub(rec.epoch)), -1)
		}
		w.attempted += in.perRequest()
		w.failed += in.perRequest() - ok
		if err != nil {
			if w.firstErr == nil {
				w.firstErr = err
			}
			continue // a failed request has no latency: it misses every figure
		}
		s := sample{latency: t1.Sub(t0), client: t2.Sub(t1), ok: ok, ref: reference(in, i)}
		s.cycle = time.Since(t0)
		w.samples = append(w.samples, s)
	}
	return w
}

// cpuTime is the CPU time, user and system, the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (w window) qps() float64 {
	ok := 0
	for _, s := range w.samples {
		ok += s.ok
	}
	return float64(ok) / w.elapsed.Seconds()
}

// ref is the window's machine speed: its median reference.
func (w window) ref() time.Duration {
	out := make([]time.Duration, len(w.samples))
	for i, s := range w.samples {
		out[i] = s.ref
	}
	return quantile(out, 0.50)
}

// latencyRefs is the q-quantile of the window's latencies, each in units
// of the reference that followed it: both halves of every ratio ran
// within the same few milliseconds on the same core, so a change of the
// box's speed inside a window cancels too. (Ten seeds of the window's
// median latency over the window's median reference spread 6–12 %, of
// this 2–6 %.)
func (w window) latencyRefs(q float64) float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = float64(s.latency) / float64(s.ref)
	}
	return quantile(out, q)
}

// qpsRefs is verified queries per thousand references of closed-loop
// time: 1000 over the median cycle per verified query, each cycle in
// units of its own reference, times the connections cycling side by side. It is the window's typical rate — what a
// stall of a few cycles takes from the mean rate shows in qps and the
// p95, not here — and it repeats far more closely than qps × the window's
// median reference (11–19 % against 2–6 % over ten seeds).
func (w window) qpsRefs() float64 {
	out := make([]float64, len(w.samples))
	for i, s := range w.samples {
		out[i] = float64(s.cycle) / float64(s.ref) / float64(s.ok)
	}
	return 1e3 * float64(w.conns) / quantile(out, 0.50)
}

func (w window) latencies() []time.Duration {
	out := make([]time.Duration, len(w.samples))
	for i, s := range w.samples {
		out[i] = s.latency
	}
	return out
}

// quantile is the nearest-rank q-quantile of ds (0 for an empty slice).
func quantile[T time.Duration | float64](ds []T, q float64) T {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median and spread summarise per-window (or per-build) values: the
// median is what is reported, the spread — interquartile range over the
// median — is what -compare calls noise.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func spread(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	q := func(p float64) float64 { // linear interpolation, as statistics.quantiles' inclusive method
		h := p * float64(len(s)-1)
		lo := int(h)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
	}
	if m := median(s); m != 0 {
		return (q(0.75) - q(0.25)) / math.Abs(m)
	}
	return 0
}

// reference is the reference work, owned by the benchmark and touching no
// code under test. The closed-loop client runs it once after every reply,
// while the server is idle, so it sees the machine's speed at that moment
// and nothing of the system under test. It has two halves, because what
// wanders on a shared box — by a factor of 1.5 to 2, for seconds or for
// hours: a busy sibling thread, the clock — slows tight arithmetic loops
// more than branching byte code (in one four-minute trace a float scan
// went from 71 to 125 µs while strconv parsing went from 499 to 660), and
// the system under test is a mix of the two:
//
//   - a scan: squared distances from a pool query to the first 256 KiB of
//     the workload's own dataset, four accumulators wide, four passes
//     over. The region is cache-resident on purpose: vec.IntDot and
//     crossbar.DotAllInto are, and the engines' sweeps run at a few GB/s,
//     where the core and not the memory is the limit; a scan that streamed
//     cold 1 MiB chunks of the dataset read 219 µs in a spell where every
//     kernel probe took 1.5–2× its usual time and 203 µs outside it.
//   - a parse: strconv.ParseFloat over the numbers in the first 16 KiB of
//     the request just sent, which is what decoding a request comes to.
//
// With the scan alone, ten seeds of wire-light (all JSON) spread 6 % and
// its ratio drifted 7 % from the box's fast spells to its slow ones; with
// both, 2 % and flat, and wire-knn (all arithmetic) kept its 3–5 %.
func reference(in *inputs, i int) time.Duration {
	const regionBytes, passes, parseBytes = 256 << 10, 4, 16 << 10
	rows := min(max(regionBytes/(8*in.x.D), 1), in.x.N)
	q := in.pool.Row(i % poolSize)
	d := in.x.D &^ 3
	body := in.bodies[i%poolSize]
	body = body[:min(len(body), parseBytes)]
	t0 := time.Now()
	best := math.Inf(1)
	for p := 0; p < passes; p++ {
		for r := 0; r < rows; r++ {
			row := in.x.Row(r)
			var s0, s1, s2, s3 float64
			for j := 0; j < d; j += 4 {
				d0, d1, d2, d3 := row[j]-q[j], row[j+1]-q[j+1], row[j+2]-q[j+2], row[j+3]-q[j+3]
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
			best = math.Min(best, s0+s1+s2+s3)
		}
	}
	// The numbers are the runs of bytes between brackets and commas that
	// start like one.
	for lo := 0; lo < len(body); {
		hi := lo
		for hi < len(body) && body[hi] != ',' && body[hi] != '[' && body[hi] != ']' {
			hi++
		}
		if hi > lo && (body[lo] == '-' || body[lo]-'0' <= 9) {
			f, _ := strconv.ParseFloat(string(body[lo:hi]), 64) // a number cut off at parseBytes reads as 0
			best += f
		}
		lo = hi + 1
	}
	refSink = best
	return time.Since(t0)
}

var refSink float64
