package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	psp "github.com/psp-framework/psp"
)

// sizes fixes how much work one epoch of each workload does. Every
// epoch of a run does the same work, so runs differ only in how many
// epochs fit in --seconds.
type sizes struct {
	HotCycles int // hot-topic batches per epoch
	HotBatch  int // posts per hot-topic batch

	FeedCycles int // feed batches per epoch
	FeedBatch  int // posts per feed batch
	Reads      int // GET /v1/assessment per hot-topic or feed cycle

	AnalystCycles  int // analyst write→fresh→read cycles per epoch
	PagesPerCycle  int // federated evidence pages read per cycle
	PageSize       int // posts per evidence page
	Tenants        int // generated TARA tenants PUT at set-up
	TenantThreats  int // threat scenarios per generated tenant
	TenantAssets   int
	TenantDamages  int
	PathsPerThreat int

	Setups   int // timed set-ups per epoch; the last one runs the epoch
	Restarts int // clean close → reopen cycles at the end of an epoch
}

// fullSizes are the committed benchmark's sizes.
var fullSizes = sizes{
	HotCycles: 16, HotBatch: 20,
	FeedCycles: 200, FeedBatch: 200, Reads: 4,
	AnalystCycles: 24, PagesPerCycle: 8, PageSize: 100,
	Tenants: 3, TenantThreats: 1500, TenantAssets: 60, TenantDamages: 120, PathsPerThreat: 3,
	Setups: 4, Restarts: 6,
}

// tinySizes run every workload and check in a few seconds (self-test).
var tinySizes = sizes{
	HotCycles: 2, HotBatch: 5,
	FeedCycles: 4, FeedBatch: 50, Reads: 2,
	AnalystCycles: 2, PagesPerCycle: 3, PageSize: 50,
	Tenants: 1, TenantThreats: 40, TenantAssets: 8, TenantDamages: 10, PathsPerThreat: 2,
	Setups: 2, Restarts: 1,
}

// batch is one ingest request: the JSON body of N posts. Only the body
// is kept; checks decode it again.
type batch struct {
	N    int
	Body []byte
}

func encodeBatch(posts []*psp.Post) (batch, error) {
	body, err := json.Marshal(posts)
	if err != nil {
		return batch{}, fmt.Errorf("encode batch: %w", err)
	}
	return batch{N: len(posts), Body: body}, nil
}

// decodeBatches decodes the posts of every batch, in order.
func decodeBatches(batches []batch) ([]*psp.Post, error) {
	var out []*psp.Post
	for i, bt := range batches {
		var posts []*psp.Post
		if err := json.Unmarshal(bt.Body, &posts); err != nil {
			return nil, fmt.Errorf("decode batch %d: %w", i, err)
		}
		out = append(out, posts...)
	}
	return out, nil
}

var (
	regions = []psp.Region{psp.RegionEurope, psp.RegionNorthAmerica, psp.RegionAsiaPacific, psp.RegionOther}

	// Vector phrases as the reference generator writes them, so the
	// classifiers see the same kind of evidence as in the seed corpus.
	hotMethods = []string{
		"bench flashed it with a bdm probe",
		"boot mode pins and a bench harness did it",
		"flashed through the obd port in minutes",
		"plug-in obd dongle, job done",
		"obd2 cable on the stock connector, no teardown",
		"paired over bluetooth from the cab",
		"remote ota push via the telematics account",
	}
	hotBodies = []string{
		"stage 1 remap done, huge gains, totally worth it",
		"fresh map loaded, pulls like a train now",
		"tuned file from the forum, smooth power all the way",
		"remap went wrong, limp mode for a week",
		"custom calibration, torque limiter gone",
	}
	hotTagSets = [][]string{{"chiptuning"}, {"remap"}, {"chiptuning", "remap"}, {"remap", "stage1"}}

	// Off-topic chatter: hashtags and words that no monitored topic,
	// learned tag or application filter contains.
	chatterTags  = []string{"weekendvibes", "coffeetime", "sunsetlovers", "gardenlife", "bookclub", "marathontraining", "jazznight", "streetfood"}
	chatterWords = []string{"lovely", "morning", "walk", "with", "friends", "great", "view", "from", "the", "hill", "new", "recipe", "tonight", "cannot", "wait", "for", "summer", "city", "lights"}
)

func randomMetrics(rng *rand.Rand, scale int) psp.PostMetrics {
	return psp.PostMetrics{
		Views:   100 + rng.Intn(50*scale),
		Likes:   rng.Intn(5 * scale),
		Reposts: rng.Intn(scale),
		Replies: rng.Intn(scale),
	}
}

// hotBatches generates on-topic posts for the ECM reprogramming case.
func hotBatches(seed int64, n, size int) ([]batch, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x48f1))
	base := time.Date(2023, 1, 2, 0, 0, 0, 0, time.UTC)
	out := make([]batch, 0, n)
	for b := 0; b < n; b++ {
		posts := make([]*psp.Post, 0, size)
		for i := 0; i < size; i++ {
			tags := hotTagSets[rng.Intn(len(hotTagSets))]
			var sb strings.Builder
			sb.WriteString(hotBodies[rng.Intn(len(hotBodies))])
			sb.WriteString(" — ")
			sb.WriteString(hotMethods[rng.Intn(len(hotMethods))])
			sb.WriteString(" on my car")
			for _, t := range tags {
				sb.WriteString(" #")
				sb.WriteString(t)
			}
			posts = append(posts, &psp.Post{
				ID:        fmt.Sprintf("hot-%04d-%02d", b, i),
				Author:    fmt.Sprintf("tuner%03d", rng.Intn(400)),
				Text:      sb.String(),
				CreatedAt: base.Add(time.Duration(rng.Int63n(int64(100 * 24 * time.Hour)))).Truncate(time.Second),
				Region:    regions[rng.Intn(len(regions))],
				Metrics:   randomMetrics(rng, 40),
			})
		}
		bt, err := encodeBatch(posts)
		if err != nil {
			return nil, err
		}
		out = append(out, bt)
	}
	return out, nil
}

// feedBatches generates off-topic chatter spread over the corpus years,
// so batches land on many stripes.
func feedBatches(seed int64, n, size int) ([]batch, error) {
	rng := rand.New(rand.NewSource(seed ^ 0xfeed))
	base := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	span := int64(4 * 365 * 24 * time.Hour)
	out := make([]batch, 0, n)
	for b := 0; b < n; b++ {
		posts := make([]*psp.Post, 0, size)
		for i := 0; i < size; i++ {
			var sb strings.Builder
			for w := 6 + rng.Intn(8); w > 0; w-- {
				sb.WriteString(chatterWords[rng.Intn(len(chatterWords))])
				sb.WriteByte(' ')
			}
			sb.WriteByte('#')
			sb.WriteString(chatterTags[rng.Intn(len(chatterTags))])
			posts = append(posts, &psp.Post{
				ID:        fmt.Sprintf("feed-%05d-%03d", b, i),
				Author:    fmt.Sprintf("user%05d", rng.Intn(20000)),
				Text:      sb.String(),
				CreatedAt: base.Add(time.Duration(rng.Int63n(span))).Truncate(time.Second),
				Region:    regions[rng.Intn(len(regions))],
				Metrics:   randomMetrics(rng, 10),
			})
		}
		bt, err := encodeBatch(posts)
		if err != nil {
			return nil, err
		}
		out = append(out, bt)
	}
	return out, nil
}

// deepWebSpec mirrors the library's deep-web corpus specification
// (social.DeepWebCorpusSpec), the paper's outsider-heavy second source:
// theft-tooling chatter dominates, insider tuning content is marginal.
func deepWebSpec(seed int64) psp.CorpusSpec {
	return psp.CorpusSpec{
		Seed:            seed,
		FirstYear:       2020,
		LastYear:        2023,
		FinalYearMonths: 4,
		Topics: []psp.TopicSpec{
			{
				Key:          "immobilizer-bypass-market",
				Tags:         []string{"relayattack", "keyfobhack", "immobypass"},
				Applications: []string{"car", "excavator"},
				YearlyVolume: map[int]int{2020: 180, 2021: 240, 2022: 320, 2023: 130},
				VectorMix: map[string]float64{
					"adjacent": 0.65, "physical": 0.30, "network": 0.05,
				},
				EngagementScale: 0.6,
			},
			{
				Key:          "tracker-defeat-market",
				Tags:         []string{"gpsblocker", "trackerjammer"},
				Applications: []string{"excavator", "truck"},
				YearlyVolume: map[int]int{2020: 90, 2021: 120, 2022: 160, 2023: 60},
				VectorMix: map[string]float64{
					"physical": 0.60, "adjacent": 0.35, "network": 0.05,
				},
				EngagementScale: 0.5,
			},
			{
				Key:          "deep-dpf-chatter",
				Tags:         []string{"dpfdelete"},
				Applications: []string{"excavator"},
				Insider:      true,
				YearlyVolume: map[int]int{2020: 20, 2021: 25, 2022: 30, 2023: 12},
				VectorMix: map[string]float64{
					"physical": 0.60, "local": 0.40,
				},
				EngagementScale: 0.4,
				PositiveShare:   0.5,
			},
		},
	}
}

// deepWebPosts generates the deep-web corpus, fixed like the reference
// corpus.
func deepWebPosts() ([]*psp.Post, error) {
	return psp.GenerateCorpus(deepWebSpec(referenceSeed + 1))
}

// namespaced copies posts with their IDs prefixed by a federation
// source name, as a federated listing reports them.
func namespaced(source string, posts []*psp.Post) []*psp.Post {
	out := make([]*psp.Post, len(posts))
	for i, p := range posts {
		cp := *p
		cp.ID = source + ":" + p.ID
		out[i] = &cp
	}
	return out
}

// evidenceQuery is one analyst query: a filter, and where its listing
// starts (Skip posts deep, by keyset cursor).
type evidenceQuery struct {
	Kind  string // tag, term, window or deep
	Query psp.SocialQuery
	Skip  int
}

// evidenceQueries is the analyst's query mix.
func evidenceQueries(pageSize int) []evidenceQuery {
	w0 := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	w1 := time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC)
	w2 := time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC)
	w3 := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	q := func(kind string, skip int, sq psp.SocialQuery) evidenceQuery {
		sq.MaxResults = pageSize
		return evidenceQuery{Kind: kind, Query: sq, Skip: skip}
	}
	return []evidenceQuery{
		q("tag", 0, psp.SocialQuery{AnyTags: []string{"relayattack", "keyfobhack"}}),
		q("term", 0, psp.SocialQuery{MustTerms: []string{"excavator"}}),
		q("window", 0, psp.SocialQuery{Since: w0, Until: w1}),
		q("deep", 600, psp.SocialQuery{AnyTags: []string{"dpfdelete", "gpsblocker"}}),
		q("tag", 0, psp.SocialQuery{AnyTags: []string{"chiptuning"}, Region: psp.RegionEurope}),
		q("term", 0, psp.SocialQuery{MustTerms: []string{"obd", "truck"}}),
		q("window", 0, psp.SocialQuery{Since: w2, Until: w3, Region: psp.RegionNorthAmerica}),
		q("deep", 1500, psp.SocialQuery{Since: w0, Until: w3}),
	}
}

// tenantSpec is one generated TARA tenant: its name, its analysis
// document, and the op batches the analyst posts against it.
type tenantSpec struct {
	Name string
	Doc  []byte
}

// tenantSpecs generates the analyst's large tenants.
func tenantSpecs(seed int64, sz sizes) ([]tenantSpec, error) {
	out := make([]tenantSpec, 0, sz.Tenants)
	for i := 0; i < sz.Tenants; i++ {
		a, err := psp.GenerateTARAAnalysis(psp.TARAGenSpec{
			Name:           fmt.Sprintf("variant %d", i),
			Assets:         sz.TenantAssets,
			Damages:        sz.TenantDamages,
			Threats:        sz.TenantThreats,
			PathsPerThreat: sz.PathsPerThreat,
			Seed:           seed*31 + int64(i),
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := a.WriteJSON(&buf); err != nil {
			return nil, err
		}
		out = append(out, tenantSpec{Name: fmt.Sprintf("VARIANT-%d", i), Doc: buf.Bytes()})
	}
	return out, nil
}

// Wire forms of the ops the analyst sends (the /v1/tara op schema).
type (
	opDoc struct {
		Op     string       `json:"op"`
		ID     string       `json:"id,omitempty"`
		Table  *tableDoc    `json:"table,omitempty"`
		Path   *pathDoc     `json:"path,omitempty"`
		Threat *threatPatch `json:"threat,omitempty"`
	}
	tableDoc struct {
		Name    string            `json:"name"`
		Ratings map[string]string `json:"ratings"`
	}
	pathDoc struct {
		ID       string    `json:"id"`
		ThreatID string    `json:"threat_id"`
		Steps    []stepDoc `json:"steps"`
	}
	stepDoc struct {
		Description string `json:"description,omitempty"`
		Vector      string `json:"vector"`
	}
	threatPatch struct {
		ID        string   `json:"id"`
		Name      string   `json:"name"`
		DamageIDs []string `json:"damage_ids"`
		Property  string   `json:"property"`
		STRIDE    string   `json:"stride"`
		Profiles  []string `json:"profiles,omitempty"`
		Vector    string   `json:"vector"`
	}
	mutateDoc struct {
		ExpectVersion uint64  `json:"expect_version"`
		Ops           []opDoc `json:"ops"`
	}
)

var (
	vectorNames      = []string{"physical", "local", "adjacent", "network"}
	feasibilityNames = []string{"very_low", "low", "medium", "high"}
)

// tenantWrite is one analyst update: the tenant, the ops as sent, and
// the version the analyst expects the tenant at.
type tenantWrite struct {
	Tenant string
	Ops    []opDoc
	Body   []byte
}

// tenantWrites generates one op batch per cycle, round-robin over the
// tenants. Every batch holds one op of each single-threat kind, in an
// order that rotates with the cycle: a per-threat table override, a new
// attack path, the removal of a path the analyst added earlier (a
// second new path while there is none), and a new analyst-owned threat
// scenario. --seed picks the threats, ratings and vectors. Versions
// start at 1 (PUT) and advance by one per batch.
func tenantWrites(seed int64, tenants []tenantSpec, sz sizes, cycles int) ([]tenantWrite, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x7a7a))
	version := make(map[string]uint64, len(tenants))
	added := make(map[string][]string, len(tenants)) // analyst paths still present
	for _, t := range tenants {
		version[t.Name] = 1
	}
	damage := func() string { return fmt.Sprintf("DS-%03d", rng.Intn(sz.TenantDamages)) }
	threat := func() string { return fmt.Sprintf("TS-%03d", rng.Intn(sz.TenantThreats)) }
	out := make([]tenantWrite, 0, cycles)
	for c := 0; c < cycles; c++ {
		t := tenants[c%len(tenants)]
		var ops []opDoc
		for k := 0; k < 4; k++ {
			switch kind := (c + k) % 4; {
			case kind == 0:
				ratings := make(map[string]string, 4)
				for _, v := range vectorNames {
					ratings[v] = feasibilityNames[rng.Intn(len(feasibilityNames))]
				}
				ops = append(ops, opDoc{Op: "set_threat_table", ID: threat(),
					Table: &tableDoc{Name: fmt.Sprintf("analyst-%d", c), Ratings: ratings}})
			case kind == 1 || (kind == 2 && len(added[t.Name]) == 0):
				id := fmt.Sprintf("AP-ANALYST-%04d-%d", c, k)
				steps := make([]stepDoc, 1+rng.Intn(3))
				for i := range steps {
					steps[i] = stepDoc{Description: fmt.Sprintf("analyst step %d", i), Vector: vectorNames[rng.Intn(4)]}
				}
				ops = append(ops, opDoc{Op: "upsert_path", Path: &pathDoc{ID: id, ThreatID: threat(), Steps: steps}})
				added[t.Name] = append(added[t.Name], id)
			case kind == 2:
				i := rng.Intn(len(added[t.Name]))
				id := added[t.Name][i]
				added[t.Name] = append(added[t.Name][:i], added[t.Name][i+1:]...)
				ops = append(ops, opDoc{Op: "remove_path", ID: id})
			default:
				ops = append(ops, opDoc{Op: "upsert_threat", Threat: &threatPatch{
					ID:        fmt.Sprintf("TS-ANALYST-%04d-%d", c, k),
					Name:      "analyst finding",
					DamageIDs: []string{damage()},
					Property:  "integrity",
					STRIDE:    "tampering",
					Profiles:  []string{"insider"},
					Vector:    vectorNames[rng.Intn(4)],
				}})
			}
		}
		body, err := json.Marshal(mutateDoc{ExpectVersion: version[t.Name], Ops: ops})
		if err != nil {
			return nil, err
		}
		version[t.Name]++
		out = append(out, tenantWrite{Tenant: t.Name, Ops: ops, Body: body})
	}
	return out, nil
}
