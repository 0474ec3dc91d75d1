// Command pimserve exposes the sharded query engine over the network:
// an HTTP/1.1 + cleartext-HTTP/2 (h2c) JSON server with per-tenant
// token-bucket quotas, weighted-fair queueing, typed status codes and
// graceful drain on SIGINT/SIGTERM (in-flight requests complete; new
// arrivals get 503 so a fronting load balancer fails over cleanly).
//
// Usage:
//
//	pimserve [-addr :8080] [-dataset MSD] [-n 20000] [-shards S]
//	         [-variant standard] [-tenants hot:3:100:200,cold:1:10]
//
// Endpoints:
//
//	POST /v1/search        one kNN query            → JSON
//	POST /v1/search/batch  many queries             → streaming NDJSON
//	GET  /v1/info          engine shape (dims, caps)
//	GET  /healthz          200 serving / 503 draining
//
// -tenants provisions quotas and weights as name:weight:rate:burst
// (weight, rate and burst optional; rate 0 = unlimited). Unknown
// tenants are served with weight 1 and no quota. -metrics-addr serves
// /metrics, /debug/vars and /debug/traces on a side listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/core"
	"pimmine/internal/dataset"
	"pimmine/internal/netserve"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/resilience"
	"pimmine/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive the full flag
// surface and assert exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pimserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address for the query API")
	dsName := fs.String("dataset", "MSD", "Table 6 dataset family to generate and serve")
	n := fs.Int("n", 20000, "generated rows")
	seed := fs.Int64("seed", 1, "generation seed")
	shards := fs.Int("shards", 0, "shard count (0 = GOMAXPROCS)")
	workers := fs.Int("workers", 0, "engine worker width (0 = GOMAXPROCS)")
	variant := fs.String("variant", "standard", "per-shard searcher variant (see -list-variants)")
	listVariants := fs.Bool("list-variants", false, "list searcher variants and exit")
	queryTimeout := fs.Duration("query-timeout", 0, "per-query engine deadline (0 = none)")
	resilient := fs.Bool("resilient", true, "engage admission control, shedding, breakers and retry budget")
	tenantsSpec := fs.String("tenants", "", "tenant provisioning: name:weight:rate:burst,... (rate in qps, 0 = unlimited)")
	slots := fs.Int("slots", 0, "fair-queue concurrency (0 = worker width)")
	maxQueue := fs.Int("max-queue", netserve.DefaultMaxQueue, "per-tenant fair-queue backlog bound")
	maxK := fs.Int("max-k", netserve.DefaultMaxK, "largest k a request may ask for")
	maxBatch := fs.Int("max-batch", netserve.DefaultMaxBatch, "largest batch a request may carry")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/traces on this side address")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "bound on graceful drain after SIGTERM")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listVariants {
		for _, v := range serve.Variants() {
			fmt.Fprintln(stdout, v)
		}
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "pimserve: unexpected arguments %q\n", fs.Args())
		return 2
	}
	tenants, err := parseTenants(*tenantsSpec)
	if err != nil {
		fmt.Fprintln(stderr, "pimserve:", err)
		return 2
	}
	if *n <= 0 {
		fmt.Fprintf(stderr, "pimserve: -n must be positive, got %d\n", *n)
		return 2
	}
	if *maxQueue < 1 || *maxK < 1 || *maxBatch < 1 {
		fmt.Fprintln(stderr, "pimserve: -max-queue, -max-k and -max-batch must be at least 1")
		return 2
	}
	if *shards < 0 || *workers < 0 || *slots < 0 {
		fmt.Fprintln(stderr, "pimserve: -shards, -workers and -slots must not be negative (0 = default)")
		return 2
	}
	if !slices.Contains(serve.Variants(), serve.Variant(*variant)) {
		fmt.Fprintf(stderr, "pimserve: unknown -variant %q (see -list-variants)\n", *variant)
		return 2
	}

	prof, err := dataset.ByName(*dsName)
	if err != nil {
		fmt.Fprintln(stderr, "pimserve:", err)
		return 2
	}
	fmt.Fprintf(stderr, "pimserve: generating %s n=%d seed=%d\n", *dsName, *n, *seed)
	ds := dataset.Generate(prof, *n, *seed)

	opts := serve.Options{
		Shards:       *shards,
		Workers:      *workers,
		Variant:      serve.Variant(*variant),
		QueryTimeout: *queryTimeout,
	}
	if strings.HasSuffix(*variant, "-pim") {
		fw, err := core.New(arch.Default(), quant.DefaultAlpha, pim.ModeExact)
		if err != nil {
			fmt.Fprintln(stderr, "pimserve:", err)
			return 1
		}
		opts.Framework = fw
	}
	var observer *obs.Observer
	if *metricsAddr != "" {
		observer = obs.New(obs.Config{SampleRate: 64})
		opts.Obs = observer
	}
	if *resilient {
		eff := *workers
		if eff <= 0 {
			eff = runtime.GOMAXPROCS(0)
		}
		cfg := resilience.Default(eff)
		opts.Resilience = &cfg
	}
	eng, err := serve.New(ds.X, opts)
	if err != nil {
		fmt.Fprintln(stderr, "pimserve:", err)
		return 1
	}

	srv, err := netserve.New(netserve.Options{
		Engine:   eng,
		Tenants:  tenants,
		Slots:    *slots,
		MaxQueue: *maxQueue,
		MaxK:     *maxK,
		MaxBatch: *maxBatch,
		Obs:      observer,
	})
	if err != nil {
		fmt.Fprintln(stderr, "pimserve:", err)
		return 1
	}

	if *metricsAddr != "" {
		msrv := &http.Server{Addr: *metricsAddr, Handler: observer.Handler()}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(stderr, "pimserve: metrics server: %v\n", err)
			}
		}()
		fmt.Fprintf(stderr, "pimserve: observability on http://%s\n", *metricsAddr)
	}

	httpSrv := srv.NewHTTPServer(*addr)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(stderr, "pimserve: serving %s (dims=%d shards=%d variant=%s) on %s\n",
		*dsName, eng.Dims(), eng.NumShards(), *variant, *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "pimserve:", err)
		return 1
	case <-ctx.Done():
	}
	// Graceful drain: flip the 503 flag and complete in-flight work, then
	// close the listeners. Bounded so a wedged client cannot hold the
	// process hostage past -drain-timeout.
	fmt.Fprintln(stderr, "pimserve: draining")
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()
	select {
	case err := <-drained:
		if err != nil {
			fmt.Fprintln(stderr, "pimserve: drain:", err)
		}
	case <-time.After(*drainTimeout):
		fmt.Fprintln(stderr, "pimserve: drain timeout; exiting with requests in flight")
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutCtx)
	fmt.Fprintln(stderr, "pimserve: bye")
	return 0
}

// parseTenants parses name:weight:rate:burst comma-separated specs;
// weight, rate and burst may be omitted from the right.
func parseTenants(spec string) ([]netserve.TenantConfig, error) {
	if spec == "" {
		return nil, nil
	}
	var out []netserve.TenantConfig
	for _, item := range strings.Split(spec, ",") {
		parts := strings.Split(item, ":")
		if parts[0] == "" {
			return nil, fmt.Errorf("-tenants entry %q has no name", item)
		}
		if len(parts) > 4 {
			return nil, fmt.Errorf("-tenants entry %q has more than name:weight:rate:burst", item)
		}
		tc := netserve.TenantConfig{Name: parts[0]}
		fields := []*float64{&tc.Weight, &tc.Rate, &tc.Burst}
		for i, p := range parts[1:] {
			if p == "" {
				continue
			}
			v, err := strconv.ParseFloat(p, 64)
			if err != nil {
				return nil, fmt.Errorf("-tenants entry %q field %d: %v", item, i+1, err)
			}
			*fields[i] = v
		}
		out = append(out, tc)
	}
	return out, nil
}
