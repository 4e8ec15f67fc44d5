package main

// The traced run replays a run's operations in-process and times
// the calls into each layer's public functions from here, outside the
// program. Layers nest: httpapi handler → authorindex facade →
// query.Engine → core / inverted / metrics / graph; storage → wal;
// render / collate; ingest. A layer's self time is its time minus the
// inner layer's time on the same operation; runs print those to stderr.
// Per-call metrics (_us, _ns) are means: busy time divided by calls.

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"syscall"
	"time"

	authorindex "repro"
	"repro/internal/collate"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/ingest"
	"repro/internal/inverted"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/render"
	"repro/internal/storage"
)

// setupReps is how many times the traced run repeats each set-up step.
const setupReps = 3

// timings collects per-call durations by metric name. Safe for
// concurrent use.
type timings struct {
	mu  sync.Mutex
	got map[string][]time.Duration
}

func newTimings() *timings { return &timings{got: map[string][]time.Duration{}} }

func (t *timings) add(name string, d time.Duration) {
	t.mu.Lock()
	t.got[name] = append(t.got[name], d)
	t.mu.Unlock()
}

// time runs fn and records its duration under name.
func (t *timings) time(name string, fn func()) {
	start := time.Now()
	fn()
	t.add(name, time.Since(start))
}

func (t *timings) meanUS(name string) float64 {
	var sum time.Duration
	for _, d := range t.got[name] {
		sum += d
	}
	return us(sum) / float64(max(1, len(t.got[name])))
}

func (t *timings) medianS(name string) float64 {
	xs := make([]float64, len(t.got[name]))
	for i, d := range t.got[name] {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// setupLayers times the steps a server start or a reopen runs, on the
// store at dir holding works.
func setupLayers(dir string, works []*model.Work, out map[string]metric) error {
	t := newTimings()
	for i := 0; i < setupReps; i++ {
		var err error
		t.time("storage.open_s", func() {
			var st *storage.Store
			if st, err = storage.Open(dir, storage.Options{}); err == nil {
				err = st.Close()
			}
		})
		if err != nil {
			return err
		}
		t.time("query.load_all_s", func() { err = query.New(collate.Default()).LoadAll(works) })
		if err != nil {
			return err
		}
		t.time("graph.rebuild_s", func() { graph.New(graph.DefaultDamping).Rebuild(works) })
		t.time("facade.open_s", func() {
			var ix *authorindex.Index
			if ix, err = authorindex.Open(dir, nil); err == nil {
				err = ix.Close()
			}
		})
		if err != nil {
			return err
		}
	}
	for _, name := range []string{"storage.open_s", "query.load_all_s", "graph.rebuild_s", "facade.open_s"} {
		out[name] = metric{t.medianS(name), "s"}
	}
	return nil
}

// facadeNames maps browse operation types to facade metric names.
var facadeNames = map[string]string{
	"search": "search", "authors": "authors", "author": "author", "work": "get",
	"years": "years", "rank": "top_authors", "subjects": "subjects",
}

// traceBrowse measures the client-observed read latency against the
// server, then replays the same reads through the handler, the facade
// and the layers under it.
func traceBrowse(env *runEnv) (map[string]metric, error) {
	m := generate(env.seed, browseWorks, env.zipf)
	env.describe("serve_corpus", m.describe())
	dir := env.path("store")
	if err := buildStore(dir, m.works); err != nil {
		return nil, err
	}
	ops := m.readOps(env.seed, familyWalks)
	srv, _, err := startServer(env.authdex, dir)
	if err != nil {
		return nil, err
	}
	clients := []*client{newClient(srv.base), newClient(srv.base)}
	sums := m.checkPass(clients, ops, env.tally)
	wire := readLoop(clients, ops, sums, env.seconds, env.tally)
	clients[0].close()
	clients[1].close()
	srv.stop(syscall.SIGTERM)

	out := map[string]metric{}
	if err := setupLayers(dir, m.works, out); err != nil {
		return nil, err
	}
	ix, err := authorindex.Open(dir, nil)
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	t := newTimings()

	// Handler: the program's HTTP handler called in-process.
	h := httpapi.New(ix, httpapi.Config{}).Handler()
	var handlerMS []float64
	respBytes := 0
	for _, op := range ops {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, op.path, nil)
		start := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(start)
		t.add("httpapi."+op.kind+"_us", d)
		handlerMS = append(handlerMS, ms(d))
		respBytes += rec.Body.Len()
		var err, bad error
		if rec.Code != http.StatusOK {
			err = fmt.Errorf("%s: status %d", op.path, rec.Code)
		} else {
			bad = m.check(op, rec.Body.Bytes())
		}
		env.tally.op(op.kind, err, bad)
	}

	// Facade, one operation type at a time so that the scan counters of
	// the searches can be read on their own.
	byKind := map[string][]readOp{}
	for _, op := range ops {
		byKind[op.kind] = append(byKind[op.kind], op)
	}
	before := ix.Stats()
	reads := 0
	for _, k := range browseMix {
		name := "facade." + facadeNames[k.kind] + "_us"
		s0 := ix.Stats()
		for _, op := range byKind[k.kind] {
			reads++
			switch op.kind {
			case "search":
				t.time(name, func() { ix.Search(op.term, pageLimit) })
			case "authors":
				t.time(name, func() { ix.Authors(op.prefix, authorindex.MaxLimit) })
			case "author":
				t.time(name, func() { ix.Author(op.heading) })
			case "work":
				t.time(name, func() { ix.Get(op.id) })
			case "years":
				t.time(name, func() { ix.YearRange(op.from, op.to, pageLimit) })
			case "rank":
				t.time(name, func() { ix.TopAuthors(authorindex.ByWeighted, pageLimit) })
			case "subjects":
				t.time(name, func() { ix.Subjects() })
			}
		}
		if k.kind == "search" {
			scanned := ix.Stats().PostingsScanned - s0.PostingsScanned
			out["facade.postings_bytes_per_search"] = metric{float64(scanned) / float64(max(1, len(byKind["search"]))), "bytes"}
		}
	}
	out["facade.works_cloned_per_read"] = metric{float64(ix.Stats().WorksCloned-before.WorksCloned) / float64(reads), "count"}

	// Engine, inverted index and metrics tracker, each built apart from
	// the facade over the same corpus.
	eng := query.New(collate.Default())
	if err := eng.LoadAll(m.works); err != nil {
		return nil, err
	}
	docs := make([]inverted.Doc, len(m.works))
	for i, w := range m.works {
		docs[i] = inverted.Doc{ID: w.ID, Text: w.Title}
	}
	inv := inverted.Load(docs)
	postings := 0
	for _, op := range byKind["search"] {
		t.time("query.search_view_us", func() { eng.TitleSearchView(op.term, pageLimit) })
		t.time("inverted.eval_us", func() {
			_, st := inv.EvalWithStats(inverted.ParseQuery(op.term))
			postings += st.PostingsBytes / 8
		})
	}
	out["inverted.postings_per_search"] = metric{float64(postings) / float64(max(1, len(byKind["search"]))), "count"}
	met := metrics.NewEngine(metrics.Harmonic)
	met.Rebuild(m.works)
	for range byKind["rank"] {
		t.time("metrics.top_authors_us", func() { met.TopAuthors(metrics.ByWeighted, pageLimit) })
	}

	for kind, fname := range facadeNames {
		out["httpapi."+kind+"_us"] = metric{t.meanUS("httpapi." + kind + "_us"), "us"}
		out["facade."+fname+"_us"] = metric{t.meanUS("facade." + fname + "_us"), "us"}
	}
	for _, name := range []string{"query.search_view_us", "inverted.eval_us", "metrics.top_authors_us"} {
		out[name] = metric{t.meanUS(name), "us"}
	}
	out["httpapi.response_bytes"] = metric{float64(respBytes) / float64(len(ops)), "bytes"}
	sort.Float64s(handlerMS)
	out["wire.read_us"] = metric{1000 * (quantile(wire.latMS, 0.5) - quantile(handlerMS, 0.5)), "us"}

	fmt.Fprintf(os.Stderr, "self time per call (us), outer layer minus inner:\n")
	for _, k := range browseMix {
		hs, fs := out["httpapi."+k.kind+"_us"].Value, out["facade."+facadeNames[k.kind]+"_us"].Value
		fmt.Fprintf(os.Stderr, "  %-9s httpapi %9.1f  facade %9.1f", k.kind, hs-fs, fs)
		switch k.kind {
		case "search":
			qs, is := out["query.search_view_us"].Value, out["inverted.eval_us"].Value
			fmt.Fprintf(os.Stderr, " (pin+clone %.1f, query %.1f, inverted %.1f)", fs-qs, qs-is, is)
		case "rank":
			fmt.Fprintf(os.Stderr, " (metrics %.1f)", out["metrics.top_authors_us"].Value)
		}
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "  wire: client p50 %.1f us, handler p50 %.1f us\n", 1000*quantile(wire.latMS, 0.5), 1000*quantile(handlerMS, 0.5))
	return out, nil
}

// traceCompile replays the compile job's steps layer by layer.
func traceCompile(env *runEnv) (map[string]metric, error) {
	m := generate(env.seed, compileWorks, env.zipf)
	env.describe("compile_corpus", m.describe())
	corpus := tsv(m.works)
	coll := collate.Default()
	t := newTimings()
	out := map[string]metric{}

	var parsed *ingest.Result
	for i := 0; i < setupReps; i++ {
		var err error
		t.time("ingest.parse_s", func() { parsed, err = ingest.TSV(bytes.NewReader(corpus), ingest.Options{}) })
		if err != nil {
			return nil, err
		}
	}
	var bad error
	if len(parsed.Works) != len(m.works) {
		bad = fmt.Errorf("parsed %d works, want %d", len(parsed.Works), len(m.works))
	}
	env.tally.op("parse", nil, bad)
	chunks := func(fn func([]*model.Work)) {
		for i := 0; i < len(parsed.Works); i += authorindex.DefaultIngestBatchSize {
			fn(parsed.Works[i:min(i+authorindex.DefaultIngestBatchSize, len(parsed.Works))])
		}
	}

	dir := env.path("compile-store")
	st, err := storage.Open(dir, storage.Options{})
	if err != nil {
		return nil, err
	}
	chunks(func(c []*model.Work) {
		if err == nil {
			t.time("storage.put_batch_us", func() { _, err = st.PutBatch(c) })
		}
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	ss := st.Stats()
	if err := st.Close(); err != nil {
		return nil, err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	out["storage.bytes_per_work"] = metric{float64(size) / float64(ss.Works), "bytes"}
	out["wal.bytes_per_record"] = metric{float64(ss.WALBytes) / float64(ss.Works), "bytes"}
	out["wal.syncs_per_commit"] = metric{float64(ss.WALSyncs) / float64(ss.BatchesCommitted), "count"}

	eng := query.New(coll)
	chunks(func(c []*model.Work) {
		if err == nil {
			t.time("query.add_batch_us", func() {
				next := eng.Clone()
				err = next.AddBatch(c)
				eng = next
			})
		}
	})
	if err != nil {
		return nil, err
	}
	works := eng.AllWorksView()

	ci := eng.Index()
	for _, w := range works {
		for _, a := range w.Authors {
			var ok bool
			t.time("core.lookup_us", func() { _, ok = ci.Lookup(a) })
			if !ok {
				env.tally.check("lookup", fmt.Errorf("heading %q missing", headingOf(a)))
			}
		}
	}
	for _, w := range works {
		t.time("collate.title_key_ns", func() { collate.KeyString(w.Title, coll) })
	}

	met := metrics.NewEngine(metrics.Harmonic)
	met.Rebuild(works)
	var buf bytes.Buffer
	outBytes := 0
	for i := 0; i < setupReps; i++ {
		gr := graph.New(graph.DefaultDamping)
		gr.Rebuild(works)
		t.time("graph.top_central_us", func() { gr.TopCentral(10) })
		for _, r := range []struct {
			name string
			fn   func() error
		}{
			{"render.index_s", func() error {
				return render.Render(&buf, ci, render.Options{Format: render.Text,
					Appendix: render.BuildStatistics(met, 10), NetworkAppendix: render.BuildNetwork(gr, 10)})
			}},
			{"render.titles_s", func() error { return render.TitleIndex(&buf, works, coll, render.Options{Format: render.Text}) }},
			{"render.subjects_s", func() error { return render.SubjectIndex(&buf, works, coll, render.Options{Format: render.Text}) }},
		} {
			buf.Reset()
			t.time(r.name, func() { err = r.fn() })
			if err != nil {
				return nil, err
			}
			if r.name == "render.index_s" && i == 0 {
				env.tally.op("render_index", nil, m.checkAuthorIndex(buf.String()))
			}
			if r.name == "render.titles_s" && i == 0 {
				env.tally.op("render_titles", nil, m.checkTitleIndex(buf.String()))
			}
			if i == 0 {
				outBytes += buf.Len()
			}
		}
	}
	for _, name := range []string{"ingest.parse_s", "render.index_s", "render.titles_s", "render.subjects_s"} {
		out[name] = metric{t.medianS(name), "s"}
	}
	for _, name := range []string{"storage.put_batch_us", "query.add_batch_us", "core.lookup_us", "graph.top_central_us"} {
		out[name] = metric{t.meanUS(name), "us"}
	}
	out["collate.title_key_ns"] = metric{1000 * t.meanUS("collate.title_key_ns"), "ns"}
	out["render.output_bytes"] = metric{float64(outBytes), "bytes"}
	return out, nil
}
