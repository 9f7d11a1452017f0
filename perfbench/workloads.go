package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	psp "github.com/psp-framework/psp"
)

// bench runs the epochs of one workload and accumulates what they
// measure. An epoch builds the pipeline fresh in a new data directory,
// runs a fixed number of closed-loop cycles, checks the outputs, then
// closes and reopens the pipeline; a run repeats epochs until
// --seconds have passed, so every run attempts whole epochs.
type bench struct {
	workload string
	seed     int64
	sz       sizes
	workdir  string
	c        *client

	write, read, fresh []float64 // per-operation latencies, ms
	cpu                time.Duration
	cycles             int
	setup, restart     []float64 // s
	heap, disk         []float64 // MiB
	// heapBase is the live heap once the inputs are generated, before
	// any pipeline starts: the benchmark's own share of heap readings.
	heapBase float64

	attempted, failed int
	problems          []string

	// trace is non-nil while an epoch runs traced.
	trace *layers

	hot      []batch
	feed     []batch
	tenants  []tenantSpec
	writes   []tenantWrite
	queries  []evidenceQuery
	surface  []*psp.Post // analyst: the reference corpus as generated
	deep     []*psp.Post // analyst: the deep-web corpus as generated
	merged   []*psp.Post // analyst: both corpora with federated IDs
	starts   []string    // analyst: first page token of each query
	epochNum int
}

func newBench(workload string, seed int64, sz sizes, workdir string) (*bench, error) {
	b := &bench{workload: workload, seed: seed, sz: sz, workdir: workdir, c: newClient()}
	var err error
	switch workload {
	case "hot-topic":
		b.hot, err = hotBatches(seed, sz.HotCycles, sz.HotBatch)
	case "feed":
		b.feed, err = feedBatches(seed, sz.FeedCycles, sz.FeedBatch)
	case "analyst":
		err = b.analystInputs()
	default:
		return nil, fmt.Errorf("unknown workload %q (valid: hot-topic, feed, analyst)", workload)
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// problem records a failed operation.
func (b *bench) problem(format string, args ...any) {
	b.failed++
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		b.problems = append(b.problems, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
}

// epoch runs one epoch of the workload. A returned error means the
// pipeline could not be driven at all; output mismatches are recorded
// as failed operations instead.
func (b *bench) epoch(ctx context.Context, tracer *psp.Tracer) error {
	b.epochNum++
	dir, err := os.MkdirTemp(b.workdir, b.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	switch b.workload {
	case "hot-topic", "feed":
		return b.pspdEpoch(ctx, dir, tracer)
	default:
		return b.analystEpoch(ctx, dir, tracer)
	}
}

// setUp times b.sz.Setups set-ups of the workload's pipeline, each from
// a fresh data directory under dir, and returns the last one running
// together with its directory; the others are closed as soon as they
// are ready and their directories removed. start builds the pipeline
// in a directory and returns once it is ready. Only the kept set-up
// gets the tracer, so the span ring holds the measured loop's spans.
func setUp[T interface{ close() error }](b *bench, dir string,
	start func(dir string, tracer *psp.Tracer) (T, error), tracer *psp.Tracer) (T, string, error) {
	var zero T
	for i := 1; ; i++ {
		last := i >= b.sz.Setups
		d := filepath.Join(dir, fmt.Sprintf("setup-%d", i))
		var tr *psp.Tracer
		if last {
			tr = tracer
		}
		// Every timed phase starts from a collected heap, so garbage
		// left by the phase before it does not land in its timing.
		runtime.GC()
		t0 := time.Now()
		sys, err := start(d, tr)
		if err != nil {
			return zero, "", err
		}
		b.setup = append(b.setup, time.Since(t0).Seconds())
		b.attempted++
		if last {
			return sys, d, nil
		}
		if err := sys.close(); err != nil {
			return zero, "", fmt.Errorf("close after set-up: %w", err)
		}
		if err := os.RemoveAll(d); err != nil {
			return zero, "", err
		}
	}
}

// referenceSeed is the seed of the reference corpus that every data
// directory starts from: pspd's and sociald's -seed default. The corpus
// stays fixed across runs; --seed varies the workload's own inputs.
const referenceSeed = 42

// referenceCorpus generates the reference corpus, as pspd's seed hook
// does for an empty data directory.
func referenceCorpus() ([]*psp.Post, error) {
	return psp.GenerateCorpus(psp.DefaultCorpusSpec(referenceSeed))
}

func refuseReseed() ([]*psp.Post, error) {
	return nil, fmt.Errorf("data directory asked to be seeded again on restart")
}

// pspdEpoch is an epoch of hot-topic or feed: batches POSTed to one
// durable pspd, each followed by the wait for the assessment that
// covers it and full GETs of /v1/assessment.
func (b *bench) pspdEpoch(ctx context.Context, dir string, tracer *psp.Tracer) error {
	batches := b.hot
	if b.workload == "feed" {
		batches = b.feed
	}
	p, data, err := setUp(b, dir, func(data string, tracer *psp.Tracer) (*pspd, error) {
		p, err := startPSPD(data, referenceCorpus, tracer)
		if err != nil {
			return nil, err
		}
		if err := p.waitReady(ctx, b.c); err != nil {
			_ = p.close()
			return nil, err
		}
		return p, nil
	}, tracer)
	if err != nil {
		return err
	}

	_, before, err := b.c.get(ctx, p.url+"/v1/assessment")
	if err != nil {
		_ = p.close()
		return err
	}
	base := p.mon.Assessment().Ingested

	type cycle struct {
		gen      uint64
		ingested int
		code     int
		read     []byte
		ack      []byte
		ackCode  int
	}
	cycles := make([]cycle, 0, len(batches))
	runtime.GC()
	loop := b.beginLoop(p, nil)
	cpu0 := cpuTime()
	target := base
	for _, bt := range batches {
		span, end := loop.op("bench.ingest")
		tw := time.Now()
		code, ack, err := b.c.do(ctx, span, http.MethodPost, p.url+"/v1/posts", bt.Body)
		if err != nil {
			end()
			_ = p.close()
			return err
		}
		write := time.Since(tw)
		b.write = append(b.write, ms(write))
		target += bt.N
		a, err := waitIngested(ctx, p.mon, target)
		if err != nil {
			end()
			_ = p.close()
			return err
		}
		fresh := time.Since(tw)
		b.fresh = append(b.fresh, ms(fresh))
		end()
		loop.window(span, tw, write, fresh, "")

		// A dashboard polls: the first read lands right after the
		// publication, the others while the pipeline finishes the
		// cycle's trailing work (state file, TARA re-rate).
		var rcode int
		var body []byte
		for r := 0; r < b.sz.Reads; r++ {
			rspan, rend := loop.op("bench.assessment")
			tr := time.Now()
			code, data, err := b.c.do(ctx, rspan, http.MethodGet, p.url+"/v1/assessment", nil)
			if err != nil {
				rend()
				_ = p.close()
				return err
			}
			b.read = append(b.read, ms(time.Since(tr)))
			rend()
			if r == 0 || code != http.StatusOK {
				rcode, body = code, data
			}
		}
		loop.afterCycle()
		cycles = append(cycles, cycle{gen: a.Generation, ingested: target, code: rcode, read: body, ack: ack, ackCode: code})
	}
	b.cpu += cpuTime() - cpu0
	b.cycles += len(batches)
	b.attempted += len(batches)
	loop.end()

	// Per-cycle checks: the ack counted every post, and the read that
	// followed served an assessment at least as fresh as the wait saw.
	initial, err := decodeAssessment(before)
	if err != nil {
		_ = p.close()
		return err
	}
	baseline := initial.indexAndTunings()
	for i, cy := range cycles {
		if cy.ackCode != http.StatusAccepted {
			b.problem("%s batch %d: POST /v1/posts HTTP %d: %s", b.workload, i, cy.ackCode, cy.ack)
			continue
		}
		var ack struct {
			Added int `json:"added"`
		}
		if err := json.Unmarshal(cy.ack, &ack); err != nil || ack.Added != batches[i].N {
			b.problem("%s batch %d: ack %s, want added=%d", b.workload, i, cy.ack, batches[i].N)
			continue
		}
		w, err := decodeAssessment(cy.read)
		if cy.code != http.StatusOK || err != nil {
			b.problem("%s batch %d: GET /v1/assessment HTTP %d: %v", b.workload, i, cy.code, err)
			continue
		}
		if w.Generation < cy.gen || w.Ingested < cy.ingested {
			b.problem("%s batch %d: read generation %d ingested %d, want ≥ %d and ≥ %d",
				b.workload, i, w.Generation, w.Ingested, cy.gen, cy.ingested)
			continue
		}
		if b.workload == "feed" {
			// Off-topic chatter must leave the risk picture untouched.
			if string(w.indexAndTunings()) != string(baseline) {
				b.problem("feed batch %d: off-topic batch changed the assessment's index or tunings", i)
			}
		}
	}

	acked, err := decodeBatches(batches)
	if err != nil {
		_ = p.close()
		return err
	}
	seedPosts, err := referenceCorpus()
	if err != nil {
		_ = p.close()
		return err
	}
	var final []byte
	if len(cycles) > 0 {
		final = cycles[len(cycles)-1].read
	}
	b.attempted++ // the end-of-epoch oracle checks
	switch b.workload {
	case "hot-topic":
		if err := checkIncrementalEqualsCold(ctx, final, p, seedPosts, acked); err != nil {
			b.problem("hot-topic: %v", err)
		}
		if err := checkECMTenant(ctx, p); err != nil {
			b.problem("hot-topic: %v", err)
		}
	case "feed":
		if err := checkListings(ctx, p.store, append(seedPosts, acked...)); err != nil {
			b.problem("feed: %v", err)
		}
	}
	wantSummary := summarize(p.mon.Assessment().Result)
	seedPosts, acked, cycles = nil, nil, nil
	b.heap = append(b.heap, liveHeapMiB()-b.heapBase)

	// The ID set the restarts are checked against is built after the
	// heap reading, so that the reading holds the program's state, not
	// the benchmark's.
	if acked, err = decodeBatches(batches); err != nil {
		_ = p.close()
		return err
	}
	if seedPosts, err = referenceCorpus(); err != nil {
		_ = p.close()
		return err
	}
	ids := postIDs(seedPosts, acked)
	seedPosts, acked = nil, nil

	if err := p.close(); err != nil {
		return fmt.Errorf("close pspd: %w", err)
	}
	size, err := dirBytes(data)
	if err != nil {
		return err
	}
	b.disk = append(b.disk, float64(size)/(1<<20))
	b.trace.afterClose(data)

	for r := 0; r < b.sz.Restarts; r++ {
		runtime.GC()
		t0 := time.Now()
		p, err := startPSPD(data, refuseReseed, nil)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		if err := p.waitReady(ctx, b.c); err != nil {
			_ = p.close()
			return fmt.Errorf("restart: %w", err)
		}
		b.restart = append(b.restart, time.Since(t0).Seconds())
		b.attempted++
		b.trace.afterRestart(p.storeMet)
		if err := checkRecovered(p.store, ids); err != nil {
			b.problem("%s restart %d: %v", b.workload, r, err)
		} else if got := summarize(p.mon.Assessment().Result); got != wantSummary {
			b.problem("%s restart %d: restored assessment differs from the one published before close", b.workload, r)
		}
		if err := p.close(); err != nil {
			return fmt.Errorf("close restarted pspd: %w", err)
		}
	}
	return nil
}

// waitIngested waits for a published assessment whose Ingested count
// covers target posts.
func waitIngested(ctx context.Context, m *psp.Monitor, target int) (*psp.Assessment, error) {
	var gen uint64
	for {
		a, err := m.WaitFor(ctx, gen+1)
		if err != nil {
			return nil, err
		}
		if a.Ingested >= target {
			return a, nil
		}
		gen = a.Generation
	}
}

// analystInputs generates the analyst's corpora, tenants, op batches
// and query mix, and the first page token of every query.
func (b *bench) analystInputs() error {
	var err error
	if b.surface, err = referenceCorpus(); err != nil {
		return err
	}
	if b.deep, err = deepWebPosts(); err != nil {
		return err
	}
	if b.tenants, err = tenantSpecs(b.seed, b.sz); err != nil {
		return err
	}
	if b.writes, err = tenantWrites(b.seed, b.tenants, b.sz, b.sz.AnalystCycles); err != nil {
		return err
	}
	b.queries = evidenceQueries(b.sz.PageSize)
	b.merged = append(namespaced("surface", b.surface), namespaced("deep", b.deep)...)
	for _, q := range b.queries {
		tok := ""
		if q.Skip > 0 {
			list := bruteForce(b.merged, q.Query)
			if len(list) <= q.Skip {
				return fmt.Errorf("query %+v has only %d matches, fewer than its %d-post skip", q.Query, len(list), q.Skip)
			}
			at := list[q.Skip-1]
			tok = psp.EncodeSocialCursor(psp.SocialCursor{CreatedAt: at.CreatedAt, ID: at.ID})
		}
		b.starts = append(b.starts, tok)
	}
	return nil
}

// evidencePage is one federated page as the analyst read it.
type evidencePage struct {
	query int
	token string
	ids   []string
	total int
}

// analystEpoch is an epoch of analyst: two durable sociald backends
// federated by a Multi, plus pspd holding large generated tenants.
// Each cycle pages through federated evidence, then posts an op batch
// to one tenant and waits for its re-rated assessment.
func (b *bench) analystEpoch(ctx context.Context, dir string, tracer *psp.Tracer) error {
	sys, base, err := setUp(b, dir, func(base string, tracer *psp.Tracer) (*analystSystem, error) {
		surfaceDir, deepDir, pspdDir := analystDirs(base)
		sys, err := b.startAnalyst(ctx, surfaceDir, deepDir, pspdDir, referenceCorpus, deepWebPosts, referenceCorpus, tracer)
		if err != nil {
			return nil, err
		}
		for _, t := range b.tenants {
			code, body, err := b.c.do(ctx, nil, http.MethodPut, sys.p.url+"/v1/tara/"+t.Name, t.Doc)
			if err != nil {
				_ = sys.close()
				return nil, err
			}
			if code != http.StatusCreated {
				_ = sys.close()
				return nil, fmt.Errorf("PUT tenant %s: HTTP %d: %s", t.Name, code, body)
			}
		}
		for _, t := range b.tenants {
			if _, err := sys.p.tm.WaitForTenant(ctx, t.Name, 1); err != nil {
				_ = sys.close()
				return nil, err
			}
		}
		return sys, nil
	}, tracer)
	if err != nil {
		return err
	}
	surfaceDir, deepDir, pspdDir := analystDirs(base)

	multi, err := psp.NewMultiPlatformOptions(psp.MultiOptions{Tracer: tracer},
		psp.PlatformSource{Name: "surface", Searcher: psp.NewSocialClient(sys.surface.url)},
		psp.PlatformSource{Name: "deep", Searcher: psp.NewSocialClient(sys.deep.url)})
	if err != nil {
		_ = sys.close()
		return err
	}

	type rated struct {
		write   int
		version uint64
		code    int
		body    []byte
		cur     *psp.TenantAssessment
	}
	var pages []evidencePage
	var ratings []rated
	versions := make(map[string]uint64, len(b.tenants))
	for _, t := range b.tenants {
		versions[t.Name] = 1
	}
	runtime.GC()
	loop := b.beginLoop(sys.p, []*sociald{sys.surface, sys.deep})
	cpu0 := cpuTime()
	for c := 0; c < b.sz.AnalystCycles; c++ {
		qi := c % len(b.queries)
		q := b.queries[qi].Query
		q.PageToken = b.starts[qi]
		for pg := 0; pg < b.sz.PagesPerCycle; pg++ {
			pctx, span, end := loop.opCtx(ctx, "bench.page")
			tr := time.Now()
			page, err := multi.Search(pctx, q)
			if err != nil {
				end()
				_ = sys.close()
				return fmt.Errorf("federated page: %w", err)
			}
			d := time.Since(tr)
			b.read = append(b.read, ms(d))
			end()
			loop.readWindow(span, tr, d)
			ids := make([]string, len(page.Posts))
			for i, p := range page.Posts {
				ids[i] = p.ID
			}
			pages = append(pages, evidencePage{query: qi, token: q.PageToken, ids: ids, total: page.TotalMatches})
			q.PageToken = page.NextToken
			if q.PageToken == "" {
				q.PageToken = b.starts[qi]
			}
		}

		w := b.writes[c]
		ten, ok := sys.p.tm.Registry().Get(w.Tenant)
		if !ok {
			_ = sys.close()
			return fmt.Errorf("tenant %s vanished", w.Tenant)
		}
		prev := ten.Assessment()
		span, end := loop.op("bench.tara")
		tw := time.Now()
		code, body, err := b.c.do(ctx, span, http.MethodPost, sys.p.url+"/v1/tara/"+w.Tenant, w.Body)
		if err != nil {
			end()
			_ = sys.close()
			return err
		}
		write := time.Since(tw)
		b.write = append(b.write, ms(write))
		versions[w.Tenant]++
		cur, err := waitRated(ctx, sys.p.tm, w.Tenant, prev.Generation, versions[w.Tenant])
		if err != nil {
			end()
			_ = sys.close()
			return err
		}
		fresh := time.Since(tw)
		b.fresh = append(b.fresh, ms(fresh))
		end()
		loop.window(span, tw, write, fresh, w.Tenant)
		loop.afterCycle()
		ratings = append(ratings, rated{write: c, version: versions[w.Tenant], code: code, body: body, cur: cur})
	}
	b.cpu += cpuTime() - cpu0
	b.cycles += b.sz.AnalystCycles
	b.attempted += b.sz.AnalystCycles
	loop.end()

	// Oracles: federation ≡ brute-force merge (tag, window and deep
	// listings) or ≡ one store holding both corpora (term listings);
	// every re-rated tenant ≡ a cold rating of the mutated analysis.
	b.attempted++
	if err := b.checkPages(ctx, pages); err != nil {
		b.problem("analyst: %v", err)
	}
	for _, r := range ratings {
		var resp struct {
			Version uint64 `json:"version"`
			Error   string `json:"error"`
		}
		if r.code != http.StatusOK || json.Unmarshal(r.body, &resp) != nil || resp.Version != r.version {
			b.problem("analyst write %d: POST /v1/tara HTTP %d: %s (want version %d)", r.write, r.code, r.body, r.version)
		}
	}
	curs := make([]*psp.TenantAssessment, len(ratings))
	for i, r := range ratings {
		curs[i] = r.cur
	}
	if err := checkTenants(b.tenants, b.writes[:len(ratings)], curs); err != nil {
		b.problem("analyst: %v", err)
	}
	pages, ratings, curs = nil, nil, nil
	b.heap = append(b.heap, liveHeapMiB()-b.heapBase)
	surfaceIDs, deepIDs := postIDs(b.surface), postIDs(b.deep)

	if err := sys.close(); err != nil {
		return err
	}
	var size int64
	for _, d := range []string{surfaceDir, deepDir, pspdDir} {
		n, err := dirBytes(d)
		if err != nil {
			return err
		}
		size += n
	}
	b.disk = append(b.disk, float64(size)/(1<<20))
	b.trace.afterClose(pspdDir)

	for r := 0; r < b.sz.Restarts; r++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := b.startAnalyst(ctx, surfaceDir, deepDir, pspdDir, refuseReseed, refuseReseed, refuseReseed, nil)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		b.restart = append(b.restart, time.Since(t0).Seconds())
		b.attempted++
		b.trace.afterRestart(sys.p.storeMet)
		if err := checkRecovered(sys.surface.store, surfaceIDs); err != nil {
			b.problem("analyst restart %d: surface backend: %v", r, err)
		}
		if err := checkRecovered(sys.deep.store, deepIDs); err != nil {
			b.problem("analyst restart %d: deep backend: %v", r, err)
		}
		if err := checkRecovered(sys.p.store, surfaceIDs); err != nil {
			b.problem("analyst restart %d: pspd: %v", r, err)
		}
		if err := sys.close(); err != nil {
			return err
		}
	}
	return nil
}

// analystDirs are the data directories of the analyst's three
// processes under base.
func analystDirs(base string) (surface, deep, pspd string) {
	return filepath.Join(base, "sociald-surface"), filepath.Join(base, "sociald-deep"), filepath.Join(base, "pspd")
}

// analystSystem is the analyst workload's three processes.
type analystSystem struct {
	surface, deep *sociald
	p             *pspd
}

func (b *bench) startAnalyst(ctx context.Context, surfaceDir, deepDir, pspdDir string,
	seedSurface, seedDeep, seedPSPD func() ([]*psp.Post, error), tracer *psp.Tracer) (*analystSystem, error) {
	sys := &analystSystem{}
	var err error
	if sys.surface, err = startSociald(surfaceDir, seedSurface, tracer); err != nil {
		return nil, err
	}
	if sys.deep, err = startSociald(deepDir, seedDeep, tracer); err != nil {
		_ = sys.close()
		return nil, err
	}
	if sys.p, err = startPSPD(pspdDir, seedPSPD, tracer); err != nil {
		_ = sys.close()
		return nil, err
	}
	for _, ready := range []func(context.Context, *client) error{sys.surface.waitReady, sys.deep.waitReady, sys.p.waitReady} {
		if err := ready(ctx, b.c); err != nil {
			_ = sys.close()
			return nil, err
		}
	}
	return sys, nil
}

func (s *analystSystem) close() error {
	var first error
	if s.p != nil {
		first = s.p.close()
	}
	for _, d := range []*sociald{s.surface, s.deep} {
		if d == nil {
			continue
		}
		if err := d.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// waitRated waits until the tenant has published an assessment newer
// than gen that rates at least the given model version.
func waitRated(ctx context.Context, tm *psp.TARAMonitor, tenant string, gen, version uint64) (*psp.TenantAssessment, error) {
	for {
		cur, err := tm.WaitForTenant(ctx, tenant, gen+1)
		if err != nil {
			return nil, err
		}
		if cur.Version >= version {
			return cur, nil
		}
		gen = cur.Generation
	}
}
