package main

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	authorindex "repro"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Read operation types of the browse mix with their weights. They are
// the read mix of cmd/authdex-bench's load generator (search 30, authors
// 20, works 20, years 10, rank 5, subjects 5), whose authors share is
// split evenly between prefix pages and the single-heading GET
// /authors/{heading} that load generator does not send.
var browseMix = []struct {
	kind   string
	weight int
}{
	{"search", 30}, {"authors", 10}, {"author", 10}, {"work", 20},
	{"years", 10}, {"rank", 5}, {"subjects", 5},
}

const (
	familyWalks = 2  // passes over every family per cycle of the browse operations
	setupSpawns = 5  // server spawns per run whose median is setup_s
	pageLimit   = 20 // the server's default result limit
)

// readOp is one read of the browse mix.
type readOp struct {
	kind     string
	path     string
	term     string // search
	prefix   string // authors
	heading  string // author
	id       authorindex.WorkID
	from, to int // years
}

// readOps draws one cycle of the read mix from the seed. The author
// pages walk every family name walks times in a seeded order, each page
// listing all the family's headings; the other types are sized to the
// mix's weights relative to that and shuffled in: search terms at corpus
// frequency, headings and works uniformly. A cycle thus holds the whole
// corpus's postings in its pages, whichever authors the seed made
// prolific, and the same share of every type.
func (m *oracle) readOps(seed int64, walks int) []readOp {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	families := map[string]bool{}
	for _, p := range m.primary {
		families[p] = true
	}
	var fams []string
	for f := range families {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	pages := walks * len(fams)
	perPage := 0
	for _, k := range browseMix {
		if k.kind == "authors" {
			perPage = k.weight
		}
	}
	var kinds []string
	for _, k := range browseMix {
		n := (pages*k.weight + perPage/2) / perPage
		for i := 0; i < n; i++ {
			kinds = append(kinds, k.kind)
		}
	}
	r.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	var walk []string
	for i := 0; i < walks; i++ {
		perm := r.Perm(len(fams))
		for _, j := range perm {
			walk = append(walk, fams[j])
		}
	}
	minYear, maxYear := m.works[0].Citation.Year, m.works[len(m.works)-1].Citation.Year
	ops := make([]readOp, len(kinds))
	for i, kind := range kinds {
		op := readOp{kind: kind}
		switch kind {
		case "search":
			op.term = m.randomTerm(r)
			op.path = "/search?q=" + url.QueryEscape(op.term)
		case "authors":
			op.prefix, walk = walk[0], walk[1:]
			op.path = "/authors?limit=0&prefix=" + url.QueryEscape(op.prefix)
		case "author":
			op.heading = m.names[r.Intn(len(m.names))]
			op.path = "/authors/" + url.PathEscape(op.heading)
		case "work":
			op.id = m.works[r.Intn(len(m.works))].ID
			op.path = "/works/" + strconv.FormatUint(uint64(op.id), 10)
		case "years":
			op.from = minYear + r.Intn(maxYear-minYear-1)
			op.to = op.from + 2
			op.path = fmt.Sprintf("/years?from=%d&to=%d", op.from, op.to)
		case "rank":
			op.path = "/rank?by=weighted"
		case "subjects":
			op.path = "/subjects"
		}
		ops[i] = op
	}
	return ops
}

// randomTerm draws a title term at corpus frequency: a random term of a
// random work's title.
func (m *oracle) randomTerm(r *rand.Rand) string {
	for {
		if ts := titleTerms(m.works[r.Intn(len(m.works))].Title); len(ts) > 0 {
			return ts[r.Intn(len(ts))]
		}
	}
}

// check decodes one answer to op and compares it with the model.
func (m *oracle) check(op readOp, body []byte) error {
	var err error
	decode := func(v any) bool {
		err = json.Unmarshal(body, v)
		return err == nil
	}
	switch op.kind {
	case "search":
		var got []wireWork
		if decode(&got) {
			err = m.checkSearch(op.term, pageLimit, got)
		}
	case "authors":
		var got []wireEntry
		if decode(&got) {
			err = m.checkAuthorsPage(op.prefix, authorindex.MaxLimit, got)
		}
	case "author":
		var got wireEntry
		if decode(&got) {
			err = m.checkAuthor(op.heading, got)
		}
	case "work":
		var got wireWork
		if decode(&got) {
			err = checkWork(got, m.byID[op.id])
		}
	case "years":
		var got []wireWork
		if decode(&got) {
			err = m.checkYears(op.from, op.to, pageLimit, got)
		}
	case "rank":
		var got []rankRow
		if decode(&got) {
			err = m.checkRank("weighted", pageLimit, got)
		}
	case "subjects":
		var got []subjectRow
		if decode(&got) {
			err = m.checkSubjects(got)
		}
	default:
		err = fmt.Errorf("unknown operation %q", op.kind)
	}
	return err
}

// buildStore writes works into a fresh store at dir through the
// program's storage layer and compacts it to one snapshot.
func buildStore(dir string, works []*authorindex.Work) error {
	st, err := storage.Open(dir, storage.Options{WAL: wal.Options{NoSync: true}})
	if err != nil {
		return err
	}
	if _, err := st.PutBatch(works); err != nil {
		st.Close()
		return err
	}
	if err := st.Compact(); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// loopResult is what a closed loop measured.
type loopResult struct {
	latMS   []float64 // completed reads, sorted
	byKind  map[string][]float64
	windows [][]float64 // completed reads per one-second window, sorted
}

// summary gives each operation type's count, mean and p99 latency.
func (r loopResult) summary() map[string]string {
	out := map[string]string{}
	for k, xs := range r.byKind {
		sort.Float64s(xs)
		out[k] = fmt.Sprintf("n=%d mean=%.3fms p99=%.3fms", len(xs), mean(xs), quantile(xs, 0.99))
	}
	return out
}

// answerSums holds, per operation index, the CRC-32 of an answer that
// passed its check.
type answerSums []uint32

// checkPass sends every operation once, split across the clients, and
// checks each answer against the oracle, recording its checksum. It
// also warms up the connections and the server.
func (m *oracle) checkPass(clients []*client, ops []readOp, t *tally) answerSums {
	sums := make(answerSums, len(ops))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for i := ci; i < len(ops); i += len(clients) {
				body, _, err := c.do("GET", ops[i].path, nil)
				var bad error
				if err == nil {
					bad = m.check(ops[i], body)
					sums[i] = crc32.ChecksumIEEE(body)
				}
				t.op(ops[i].kind, err, bad)
			}
		}(ci, c)
	}
	wg.Wait()
	return sums
}

// readLoop runs one closed loop per client over ops until the deadline.
// Client i starts i/len(clients) of the way into ops. The data is
// read-only, so every answer must be byte-identical to the one
// checkPass checked; comparing checksums keeps the client's own work
// per request small.
func readLoop(clients []*client, ops []readOp, sums answerSums, d time.Duration, t *tally) loopResult {
	var mu sync.Mutex
	var samples []sample
	byKind := map[string][]float64{}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			var mine []sample
			kinds := map[string][]float64{}
			for i := ci * len(ops) / len(clients); time.Now().Before(deadline); i++ {
				op := ops[i%len(ops)]
				body, took, err := c.do("GET", op.path, nil)
				var bad error
				if err == nil {
					mine = append(mine, sample{time.Since(start), ms(took)})
					kinds[op.kind] = append(kinds[op.kind], ms(took))
					if crc32.ChecksumIEEE(body) != sums[i%len(ops)] {
						bad = fmt.Errorf("%s: answer differs from the checked one", op.path)
					}
				}
				t.op(op.kind, err, bad)
			}
			mu.Lock()
			samples = append(samples, mine...)
			for k, xs := range kinds {
				byKind[k] = append(byKind[k], xs...)
			}
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.ms
	}
	sort.Float64s(lat)
	return loopResult{latMS: lat, byKind: byKind, windows: windowsOf(samples, time.Second, d)}
}

// fullChecks asks the whole-answer questions the timed mix answers only
// in pages: the complete result set of a few terms and the top of the
// work-count ranking.
func (m *oracle) fullChecks(c *client, seed int64, t *tally) {
	r := rand.New(rand.NewSource(seed ^ 0xc4ec))
	for i := 0; i < 5; i++ {
		term := m.randomTerm(r)
		var got []wireWork
		_, err := c.getJSON("/search?limit=0&q="+url.QueryEscape(term), &got)
		var bad error
		if err == nil {
			bad = m.checkSearch(term, authorindex.MaxLimit, got)
		}
		t.op("search_all", err, bad)
	}
	var rows []rankRow
	_, err := c.getJSON("/rank?by=works&limit=100", &rows)
	var bad error
	if err == nil {
		bad = m.checkRank("works", 100, rows)
	}
	t.op("rank_works", err, bad)
}

// runBrowse runs the read mix against an out-of-process server on a
// 50k-work store.
func runBrowse(env *runEnv) (map[string]metric, error) {
	m := generate(env.seed, browseWorks, env.zipf)
	env.describe("serve_corpus", m.describe())
	dir := env.path("store")
	if err := buildStore(dir, m.works); err != nil {
		return nil, err
	}
	srv, setup, err := measureSetup(env.authdex, dir, setupSpawns)
	if err != nil {
		return nil, err
	}
	defer srv.stop(syscall.SIGTERM)
	ops := m.readOps(env.seed, familyWalks)
	clients := []*client{newClient(srv.base), newClient(srv.base)}
	defer clients[0].close()
	defer clients[1].close()

	sums := m.checkPass(clients, ops, env.tally)
	res := readLoop(clients, ops, sums, env.seconds, env.tally)
	env.describe("latency", res.summary())
	env.describe("reads_per_window", counts(res.windows))
	m.fullChecks(clients[0], env.seed, env.tally)
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return nil, err
	}
	if len(res.latMS) == 0 {
		return nil, fmt.Errorf("no read completed")
	}
	return map[string]metric{
		"setup_s":           {setup, "s"},
		"read_rps":          {windowMedian(res.windows, perSecond(time.Second)), "1/s"},
		"read_p50_ms":       {windowMedian(res.windows, p50), "ms"},
		"read_p99_ms":       {quantile(res.latMS, 0.99), "ms"},
		"serve_peak_rss_mb": {rss, "MB"},
	}, nil
}
