package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
	"unicode"

	psp "github.com/psp-framework/psp"
)

// riskPicture is the part of an assessment the oracles compare: the
// Social Attraction Index rows and the per-threat tunings, in the shape
// GET /v1/assessment serves them.
type riskPicture struct {
	Index   []indexRow  `json:"index"`
	Tunings []tuningRow `json:"tunings"`
}

type indexRow struct {
	Topic       string   `json:"topic"`
	Tags        []string `json:"tags"`
	Posts       int      `json:"posts"`
	Score       float64  `json:"score"`
	Probability float64  `json:"probability"`
	Insider     bool     `json:"insider"`
}

type tuningRow struct {
	ThreatID string             `json:"threat_id"`
	Insider  bool               `json:"insider"`
	Posts    int                `json:"posts"`
	Table    string             `json:"table"`
	Ratings  map[string]string  `json:"ratings"`
	Factors  map[string]float64 `json:"factors,omitempty"`
}

// wireAssessment is the decoded GET /v1/assessment body.
type wireAssessment struct {
	riskPicture
	Generation uint64 `json:"generation"`
	Recomputed bool   `json:"recomputed"`
	Ingested   int    `json:"ingested"`
}

func decodeAssessment(body []byte) (*wireAssessment, error) {
	var w wireAssessment
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, fmt.Errorf("decode assessment: %w", err)
	}
	return &w, nil
}

// indexAndTunings renders the compared part canonically.
func (w *wireAssessment) indexAndTunings() []byte {
	out, _ := json.Marshal(w.riskPicture)
	return out
}

var allVectors = []psp.AttackVector{psp.VectorPhysical, psp.VectorLocal, psp.VectorAdjacent, psp.VectorNetwork}

// pictureOf renders a workflow result like GET /v1/assessment does.
func pictureOf(res *psp.SocialResult) riskPicture {
	var pic riskPicture
	for _, e := range res.Index.Entries {
		pic.Index = append(pic.Index, indexRow{
			Topic: e.Topic, Tags: e.Tags, Posts: e.Posts,
			Score: e.Score, Probability: e.Probability, Insider: e.Insider,
		})
	}
	for _, t := range res.Tunings {
		row := tuningRow{ThreatID: t.Threat.ID, Insider: t.Insider, Posts: t.Posts, Table: t.Table.Name,
			Ratings: make(map[string]string, 4)}
		for _, v := range allVectors {
			if r, err := t.Table.Rating(v); err == nil {
				row.Ratings[v.String()] = r.String()
			}
		}
		if len(t.Factors) > 0 {
			row.Factors = make(map[string]float64, len(t.Factors))
			for v, f := range t.Factors {
				row.Factors[v.String()] = f
			}
		}
		pic.Tunings = append(pic.Tunings, row)
	}
	return pic
}

func summarize(res *psp.SocialResult) string {
	out, _ := json.Marshal(pictureOf(res))
	return string(out)
}

// checkIncrementalEqualsCold compares the final published assessment —
// as served over HTTP and as held by the monitor — with a cold
// RunSocial over a fresh in-memory store holding the seed corpus plus
// every acknowledged post.
func checkIncrementalEqualsCold(ctx context.Context, finalBody []byte, p *pspd, seedPosts, acked []*psp.Post) error {
	store := psp.NewSocialStore()
	if err := store.Add(append(append([]*psp.Post(nil), seedPosts...), acked...)...); err != nil {
		return fmt.Errorf("cold oracle store: %w", err)
	}
	fw, err := psp.New(psp.Config{Searcher: store})
	if err != nil {
		return err
	}
	cold, err := fw.RunSocial(ctx, monitoredInput())
	if err != nil {
		return fmt.Errorf("cold RunSocial: %w", err)
	}
	want := summarize(cold)
	if got := summarize(p.mon.Assessment().Result); got != want {
		return fmt.Errorf("incremental assessment differs from a cold run:\n got %s\nwant %s", got, want)
	}
	w, err := decodeAssessment(finalBody)
	if err != nil {
		return err
	}
	if got := string(w.indexAndTunings()); got != want {
		return fmt.Errorf("served assessment differs from a cold run:\n got %s\nwant %s", got, want)
	}
	return nil
}

// checkECMTenant waits until the TARA fleet has absorbed the last social
// generation, then compares the ECM tenant's published assessment with
// a cold rating of a copy of its analysis, and the copy's override for
// the monitored threat with the published tuning.
func checkECMTenant(ctx context.Context, p *pspd) error {
	const tenant = "ECM"
	ten, ok := p.tm.Registry().Get(tenant)
	if !ok {
		return fmt.Errorf("no %s tenant", tenant)
	}
	tuned := p.mon.Assessment().Result
	stable := 0
	deadline := time.Now().Add(30 * time.Second)
	for stable < 3 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s tenant did not settle", tenant)
		}
		cur := ten.Assessment()
		if cur != nil && cur.Version == ten.Version() && p.tm.Registry().Stats().DirtyTenants == 0 {
			stable++
		} else {
			stable = 0
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * debounce):
		}
	}
	cur := ten.Assessment()
	var clone *psp.Analysis
	if _, err := ten.Mutate(func(a *psp.Analysis) (bool, error) {
		clone = a.Clone()
		return false, nil
	}); err != nil {
		return err
	}
	if v := ten.Version(); v != cur.Version {
		return fmt.Errorf("%s tenant moved to version %d while checked at %d", tenant, v, cur.Version)
	}
	for _, t := range tuned.Tunings {
		if t.Threat.ID != "TS-ECM-01" {
			continue
		}
		if tbl := clone.ThreatTables[t.Threat.ID]; tbl == nil || !tbl.Equal(t.Table) {
			return fmt.Errorf("%s tenant does not carry the published %s tuning", tenant, t.Threat.ID)
		}
	}
	cold, err := clone.Run()
	if err != nil {
		return fmt.Errorf("cold rating of %s: %w", tenant, err)
	}
	if got, want := renderResults(cur.Results), renderResults(cold); got != want {
		return fmt.Errorf("%s tenant assessment differs from a cold rating:\n got %s\nwant %s", tenant, got, want)
	}
	return nil
}

// renderResults renders a risk determination canonically.
func renderResults(rs []*psp.ThreatResult) string {
	var sb strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&sb, "%s %s %s %d %s %s %s\n", r.Threat.ID, r.Impact, r.Feasibility, int(r.Risk),
			r.Treatment, r.CAL, r.DominantVector)
	}
	return sb.String()
}

// checkTenants replays every op batch on a private copy of each
// tenant's analysis and compares each re-rated assessment with a cold
// rating of the copy at that version.
func checkTenants(tenants []tenantSpec, writes []tenantWrite, curs []*psp.TenantAssessment) error {
	shadows := make(map[string]*psp.Analysis, len(tenants))
	versions := make(map[string]uint64, len(tenants))
	for _, t := range tenants {
		a, err := psp.ReadAnalysisJSON(strings.NewReader(string(t.Doc)))
		if err != nil {
			return err
		}
		shadows[t.Name] = a
		versions[t.Name] = 1
	}
	for i, w := range writes {
		raw, err := json.Marshal(w.Ops)
		if err != nil {
			return err
		}
		ops, err := psp.DecodeTARAOps(strings.NewReader(string(raw)))
		if err != nil {
			return fmt.Errorf("write %d: %w", i, err)
		}
		shadow := shadows[w.Tenant]
		if _, err := psp.ApplyTARAOps(shadow, ops); err != nil {
			return fmt.Errorf("write %d: apply to shadow: %w", i, err)
		}
		versions[w.Tenant]++
		cur := curs[i]
		if cur.Version != versions[w.Tenant] {
			return fmt.Errorf("write %d: tenant %s rated version %d, want %d", i, w.Tenant, cur.Version, versions[w.Tenant])
		}
		cold, err := shadow.Clone().Run()
		if err != nil {
			return fmt.Errorf("write %d: cold rating: %w", i, err)
		}
		if got, want := renderResults(cur.Results), renderResults(cold); got != want {
			return fmt.Errorf("write %d: tenant %s assessment differs from a cold rating of the mutated analysis", i, w.Tenant)
		}
	}
	return nil
}

// checkRecovered verifies that a reopened store holds exactly ids.
func checkRecovered(store *psp.SocialStore, ids []string) error {
	if n := store.Len(); n != len(ids) {
		return fmt.Errorf("store holds %d posts, want %d", n, len(ids))
	}
	for _, id := range ids {
		if store.Post(id) == nil {
			return fmt.Errorf("acknowledged post %s missing after restart", id)
		}
	}
	return nil
}

func postIDs(lists ...[]*psp.Post) []string {
	var out []string
	for _, l := range lists {
		for _, p := range l {
			out = append(out, p.ID)
		}
	}
	return out
}

// hashtags extracts the lower-cased hashtags of a post text: '#'
// followed by letters, digits or '_'.
func hashtags(text string) []string {
	var out []string
	rs := []rune(text)
	for i := 0; i < len(rs); i++ {
		if rs[i] != '#' {
			continue
		}
		j := i + 1
		for j < len(rs) && (unicode.IsLetter(rs[j]) || unicode.IsDigit(rs[j]) || rs[j] == '_') {
			j++
		}
		if j > i+1 {
			out = append(out, strings.ToLower(string(rs[i+1:j])))
		}
		i = j - 1
	}
	return out
}

// bruteForce filters posts by a tag/region/window query and sorts them
// by (CreatedAt, ID). It does not support MustTerms.
func bruteForce(posts []*psp.Post, q psp.SocialQuery) []*psp.Post {
	want := make(map[string]bool, len(q.AnyTags))
	for _, t := range q.AnyTags {
		want[strings.ToLower(t)] = true
	}
	var out []*psp.Post
	for _, p := range posts {
		if q.Region != "" && p.Region != q.Region {
			continue
		}
		if !q.Since.IsZero() && p.CreatedAt.Before(q.Since) {
			continue
		}
		if !q.Until.IsZero() && !p.CreatedAt.Before(q.Until) {
			continue
		}
		if len(want) > 0 {
			hit := false
			for _, t := range hashtags(p.Text) {
				if want[t] {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].CreatedAt, out[i].ID, out[j].CreatedAt, out[j].ID) })
	return out
}

func keyLess(ta time.Time, ida string, tb time.Time, idb string) bool {
	if !ta.Equal(tb) {
		return ta.Before(tb)
	}
	return ida < idb
}

// checkListings compares the store's tag and window listings with a
// brute-force filter and sort over the posts it should hold.
func checkListings(ctx context.Context, store *psp.SocialStore, posts []*psp.Post) error {
	queries := []psp.SocialQuery{
		{AnyTags: []string{chatterTags[1]}},
		{AnyTags: []string{"dpfdelete", chatterTags[3]}},
		{Since: time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC), Until: time.Date(2020, 9, 1, 0, 0, 0, 0, time.UTC)},
		{Since: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC), Until: time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC), Region: psp.RegionAsiaPacific},
	}
	for _, q := range queries {
		got, err := psp.SearchAllPosts(ctx, store, q)
		if err != nil {
			return fmt.Errorf("listing %+v: %w", q, err)
		}
		want := bruteForce(posts, q)
		if err := sameIDs(got, want); err != nil {
			return fmt.Errorf("listing tags=%v window=[%s,%s) region=%q: %w", q.AnyTags,
				q.Since.Format("2006-01-02"), q.Until.Format("2006-01-02"), q.Region, err)
		}
	}
	return nil
}

func sameIDs(got, want []*psp.Post) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d posts, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			return fmt.Errorf("post %d is %s, want %s", i, got[i].ID, want[i].ID)
		}
	}
	return nil
}

// checkPages compares every federated page the analyst read: tag,
// window and deep pages with a brute-force merge of both corpora on the
// (CreatedAt, ID) key, term pages with paging one in-memory store that
// holds both corpora. Both oracles see the posts under their federated
// IDs ("<source>:<id>").
func (b *bench) checkPages(ctx context.Context, pages []evidencePage) error {
	all := b.merged
	oracle := psp.NewSocialStore()
	if err := oracle.Add(all...); err != nil {
		return fmt.Errorf("term oracle store: %w", err)
	}
	lists := make(map[int][]*psp.Post)
	for i, pg := range pages {
		eq := b.queries[pg.query]
		q := eq.Query
		q.PageToken = pg.token
		var want []string
		var total int
		if eq.Kind == "term" {
			page, err := oracle.Search(ctx, q)
			if err != nil {
				return fmt.Errorf("page %d: oracle: %w", i, err)
			}
			for _, p := range page.Posts {
				want = append(want, p.ID)
			}
			total = page.TotalMatches
		} else {
			list, ok := lists[pg.query]
			if !ok {
				list = bruteForce(all, eq.Query)
				lists[pg.query] = list
			}
			start := 0
			if pg.token != "" {
				cur, err := psp.ParseSocialCursor(pg.token)
				if err != nil {
					return fmt.Errorf("page %d: %w", i, err)
				}
				start = sort.Search(len(list), func(k int) bool {
					return keyLess(cur.CreatedAt, cur.ID, list[k].CreatedAt, list[k].ID)
				})
			}
			for k := start; k < len(list) && len(want) < q.MaxResults; k++ {
				want = append(want, list[k].ID)
			}
			total = len(list)
		}
		if strings.Join(pg.ids, ",") != strings.Join(want, ",") {
			return fmt.Errorf("page %d (%s query %d): %d posts differ from the oracle's %d", i, eq.Kind, pg.query, len(pg.ids), len(want))
		}
		if pg.total != total {
			return fmt.Errorf("page %d (%s query %d): TotalMatches %d, want %d", i, eq.Kind, pg.query, pg.total, total)
		}
	}
	return nil
}
