package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	psp "github.com/psp-framework/psp"
)

// debounce is the monitor and TARA-fleet quiet period. It is short so
// that fresh_ms measures the work behind a rating rather than the
// quiet period in front of it.
const debounce = 10 * time.Millisecond

// pspd is an in-process pspd: the durable store, the social monitor,
// the TARA fleet and the HTTP API, wired as cmd/pspd wires them with
// -data-dir set.
type pspd struct {
	dir      string
	url      string
	store    *psp.SocialStore
	storeMet *psp.SocialStoreMetrics
	reg      *psp.MetricsRegistry
	fw       *psp.Framework
	mon      *psp.Monitor
	tm       *psp.TARAMonitor
	srv      *http.Server
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	srvErr   chan error
}

// startPSPD opens (seeding on first use) the data directory and serves
// the pipeline on a loopback port. seed runs only for a fresh
// directory. tracer may be nil: tracing off.
func startPSPD(dir string, seed func() ([]*psp.Post, error), tracer *psp.Tracer) (*pspd, error) {
	reg := psp.NewMetricsRegistry()
	psp.RegisterBuildInfo(reg, psp.Version)
	storeMet := psp.NewSocialStoreMetrics(reg)
	store, err := psp.OpenSocialStore(dir, durableOptions(seed, storeMet))
	if err != nil {
		return nil, fmt.Errorf("open pspd store: %w", err)
	}
	if tracer != nil {
		store.SetTracer(tracer)
	}
	p := &pspd{dir: dir, store: store, storeMet: storeMet, reg: reg}
	fail := func(err error) (*pspd, error) {
		_ = store.Close()
		return nil, err
	}
	p.fw, err = psp.New(psp.Config{Searcher: store})
	if err != nil {
		return fail(err)
	}
	p.mon, err = psp.NewMonitor(psp.MonitorConfig{
		Framework: p.fw,
		Store:     store,
		Input:     monitoredInput(),
		Debounce:  debounce,
		State:     psp.NewMonitorFileState(filepath.Join(dir, "monitor.json")),
		Metrics:   psp.NewMonitorMetrics(reg),
		Tracer:    tracer,
	})
	if err != nil {
		return fail(err)
	}
	p.tm, err = newTARAFleet(p.fw, p.mon, psp.NewTARAMonitorMetrics(reg), tracer)
	if err != nil {
		return fail(err)
	}
	api := psp.NewMonitorAPI(p.mon).WithObservability(reg, nil)
	if tracer != nil {
		api.WithTracing(tracer)
	}
	api.WithTARA(p.tm)

	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	p.wg.Add(2)
	go func() {
		defer p.wg.Done()
		_ = p.mon.Run(ctx)
	}()
	go func() {
		defer p.wg.Done()
		_ = p.tm.Run(ctx)
	}()
	p.url, p.srv, p.srvErr, err = serve(api.Handler())
	if err != nil {
		cancel()
		p.wg.Wait()
		return fail(err)
	}
	return p, nil
}

// waitReady blocks until /v1/readyz answers 200: the first (or
// restored) assessment is published and the TARA fleet is rated.
func (p *pspd) waitReady(ctx context.Context, c *client) error {
	if _, err := p.mon.WaitFor(ctx, 1); err != nil {
		return err
	}
	for {
		// Poll the fleet's readiness in-process, finely, and confirm it
		// over HTTP once it flips.
		if p.tm.Ready() {
			code, _, err := c.get(ctx, p.url+"/v1/readyz")
			if err != nil {
				return err
			}
			if code == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// close shuts the pipeline down the way pspd does on SIGTERM: drain
// HTTP, stop the monitors, then close the store, which compacts the WAL
// tail into a final snapshot.
func (p *pspd) close() error {
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.srv.Shutdown(shutCtx)
	if serr := <-p.srvErr; serr != nil && err == nil {
		err = serr
	}
	p.cancel()
	p.wg.Wait()
	if cerr := p.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// compactRecords is the flush policy of every data directory: a
// snapshot compaction after this many WAL records, and one at close.
// The background timer is pushed out of reach (an hour; the default is
// 30 s), so how much compaction an epoch does depends on what it wrote,
// not on how fast it ran; each feed epoch (200 batches, each logging a
// record on every stripe) compacts six times.
const compactRecords = 400

func durableOptions(seed func() ([]*psp.Post, error), met *psp.SocialStoreMetrics) psp.SocialDurableOptions {
	return psp.SocialDurableOptions{Seed: seed, Metrics: met, CompactRecords: compactRecords, CompactEvery: time.Hour}
}

// monitoredInput is pspd's default monitored workflow: no application
// or region filter, the two default threat scenarios.
func monitoredInput() psp.SocialInput {
	return psp.SocialInput{Threats: defaultThreats()}
}

// newTARAFleet mirrors cmd/pspd: one tenant per reference-architecture
// ECU, with the socially monitored scenarios attached to ECM and BCM.
func newTARAFleet(fw *psp.Framework, m *psp.Monitor, met *psp.TARAMonitorMetrics, tracer *psp.Tracer) (*psp.TARAMonitor, error) {
	top, err := psp.ReferenceArchitecture()
	if err != nil {
		return nil, err
	}
	reg, err := psp.DeriveTARARegistry(top)
	if err != nil {
		return nil, err
	}
	threats := defaultThreats()
	attach := []struct {
		tenant string
		threat *psp.ThreatScenario
	}{
		{"ECM", threats[0]},
		{"BCM", threats[1]},
	}
	for _, at := range attach {
		ten, ok := reg.Get(at.tenant)
		if !ok {
			return nil, fmt.Errorf("tara fleet: reference architecture has no %s tenant", at.tenant)
		}
		th := *at.threat
		th.DamageIDs = []string{"DS-TAMPER"}
		if _, err := ten.Mutate(func(a *psp.Analysis) (bool, error) {
			if err := a.UpsertThreat(&th); err != nil {
				return false, err
			}
			if _, err := psp.SyncTARAPaths(top, a, at.tenant); err != nil {
				return false, err
			}
			return true, nil
		}); err != nil {
			return nil, fmt.Errorf("tara fleet: attach %s to %s: %w", th.ID, at.tenant, err)
		}
	}
	return psp.NewTARAMonitor(psp.TARAMonitorConfig{
		Framework: fw,
		Registry:  reg,
		Social:    m,
		Debounce:  debounce,
		Metrics:   met,
		Tracer:    tracer,
	})
}

// defaultThreats is cmd/pspd's monitored scenario list: the paper's ECM
// reprogramming case and the immobilizer-bypass contrast.
func defaultThreats() []*psp.ThreatScenario {
	return []*psp.ThreatScenario{
		{
			ID: "TS-ECM-01", Name: "ECM reprogramming",
			Description: "Owner-approved reflash of ECM calibration",
			DamageIDs:   []string{"DS-01"},
			Property:    psp.PropertyIntegrity,
			STRIDE:      psp.Tampering,
			Profiles:    []psp.AttackerProfile{psp.ProfileInsider, psp.ProfileRational, psp.ProfileLocal},
			Vector:      psp.VectorPhysical,
			Keywords:    []string{"chiptuning", "ecutune", "remap", "stage1"},
		},
		{
			ID: "TS-IMMO-01", Name: "Immobilizer bypass",
			Description: "Theft via key-fob relay or cloning",
			DamageIDs:   []string{"DS-02"},
			Property:    psp.PropertyAuthenticity,
			STRIDE:      psp.Spoofing,
			Profiles:    []psp.AttackerProfile{psp.ProfileOutsider},
			Vector:      psp.VectorAdjacent,
			Keywords:    []string{"keyfobhack", "relayattack"},
		},
	}
}

// sociald is an in-process sociald with -data-dir set and rate limiting
// off: a durable store behind the /v2 search API.
type sociald struct {
	url    string
	store  *psp.SocialStore
	reg    *psp.MetricsRegistry
	srv    *http.Server
	srvErr chan error
	// served counts /v2/search response bytes, for social.page_kb.
	served atomic.Int64
}

func startSociald(dir string, seed func() ([]*psp.Post, error), tracer *psp.Tracer) (*sociald, error) {
	reg := psp.NewMetricsRegistry()
	psp.RegisterBuildInfo(reg, psp.Version)
	store, err := psp.OpenSocialStore(dir, durableOptions(seed, psp.NewSocialStoreMetrics(reg)))
	if err != nil {
		return nil, fmt.Errorf("open sociald store: %w", err)
	}
	if tracer != nil {
		store.SetTracer(tracer)
	}
	s := &sociald{store: store, reg: reg}
	httpMet := psp.NewHTTPMetrics(reg, nil)
	if tracer != nil {
		httpMet.WithTracer(tracer)
	}
	mux := http.NewServeMux()
	mux.Handle("/v2/", countBytes(&s.served, httpMet.Instrument(
		func(r *http.Request) string { return r.URL.Path },
		psp.NewSocialServer(store, nil).Handler())))
	mux.Handle("/v1/metrics", psp.MetricsHandler(reg))
	s.url, s.srv, s.srvErr, err = serve(mux)
	if err != nil {
		_ = store.Close()
		return nil, err
	}
	return s, nil
}

func (s *sociald) waitReady(ctx context.Context, c *client) error {
	code, _, err := c.get(ctx, s.url+"/v2/healthz")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("sociald healthz: HTTP %d", code)
	}
	return nil
}

func (s *sociald) close() error {
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(shutCtx)
	if serr := <-s.srvErr; serr != nil && err == nil {
		err = serr
	}
	if cerr := s.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// countBytes adds the bytes each response body carries to n.
func countBytes(n *atomic.Int64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&byteCounter{ResponseWriter: w, n: n}, r)
	})
}

type byteCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (b *byteCounter) Write(p []byte) (int, error) {
	n, err := b.ResponseWriter.Write(p)
	b.n.Add(int64(n))
	return n, err
}

// serve starts an HTTP server on a fresh loopback port. The returned
// channel yields the Serve error once the server has stopped.
func serve(h http.Handler) (string, *http.Server, chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan error, 1)
	go func() {
		err := srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		done <- err
	}()
	return "http://" + ln.Addr().String(), srv, done, nil
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) (int64, error) {
	var total int64
	err := filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
