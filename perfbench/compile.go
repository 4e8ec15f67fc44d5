package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	authorindex "repro"
)

// The job runs in rounds, each on a fresh import of the corpus, so that
// every step's samples spread over the whole phase: a slow spell of the
// shared machine, which lasts ten seconds or more, then moves a minority
// of each step's samples instead of all of them. Every round imports,
// then renders the author and subject indexes and reopens the store
// stepsPerRound times; even rounds also render the title index once;
// the first and the last round run Verify until it has run for
// verifyFor (once on the skewed corpus, where it takes seconds, four or
// so times on the flat one, where it takes a few hundred milliseconds).
// Each metric is the median of its samples.
const (
	rounds        = 5
	stepsPerRound = 3
	titleRounds   = (rounds + 1) / 2
	verifyFor     = time.Second
)

// timed runs fn after a forced garbage collection, so that it does not
// pay for the garbage of the step before, and returns its duration in
// seconds.
func timed(fn func() error) (float64, error) {
	runtime.GC()
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// jobResult is what the compile job process reports to the benchmark.
type jobResult struct {
	Imported   int
	ImportS    float64
	VerifyS    float64
	VerifyReps int
	VerifyErr  string
	IndexS     float64
	TitlesS    float64
	SubjectsS  float64
	ReopenS    float64
	Stats      authorindex.Stats
	PeakRSSMB  float64
	StoreBytes int64
}

// compileJob is the editor's batch job, run in a process of its own
// through the public API only: import the TSV corpus in work/ into a
// durable store, verify it, render the three indexes into work/, then
// close and reopen the store. It prints a jobResult.
func compileJob(work string) error {
	corpus := filepath.Join(work, "corpus.tsv")
	var res jobResult
	var ix *authorindex.Index
	dir := ""
	var imports, verifies, index, titles, subjects, reopens []float64
	var buf bytes.Buffer
	// render times one render into buf and keeps the first one's output
	// in work/file for the load process to check.
	render := func(file string, times *[]float64, fn func(*bytes.Buffer) error) error {
		buf.Reset()
		d, err := timed(func() error { return fn(&buf) })
		if err != nil {
			return fmt.Errorf("render %s: %w", file, err)
		}
		if len(*times) == 0 {
			if err := os.WriteFile(filepath.Join(work, file), buf.Bytes(), 0o644); err != nil {
				return err
			}
		}
		*times = append(*times, d)
		return nil
	}
	for r := 0; r < rounds; r++ {
		if ix != nil {
			if err := ix.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		dir = filepath.Join(work, fmt.Sprintf("store-%d", r))
		d, err := timed(func() error {
			var err error
			if ix, err = authorindex.Open(dir, nil); err != nil {
				return err
			}
			f, err := os.Open(corpus)
			if err != nil {
				return err
			}
			defer f.Close()
			got, err := ix.ImportTSV(f, false)
			if err != nil {
				return fmt.Errorf("import: %w", err)
			}
			res.Imported = len(got.Works)
			return nil
		})
		if err != nil {
			return err
		}
		imports = append(imports, d)

		if r == 0 || r == rounds-1 {
			for sum := 0.0; sum < verifyFor.Seconds(); {
				d, _ := timed(func() error {
					if err := ix.Verify(); err != nil && res.VerifyErr == "" {
						res.VerifyErr = err.Error()
					}
					return nil
				})
				verifies = append(verifies, d)
				sum += d
			}
		}

		for i := 0; i < stepsPerRound; i++ {
			if err := render("index.txt", &index, func(b *bytes.Buffer) error {
				return ix.Render(b, authorindex.RenderOptions{Format: authorindex.Text, Statistics: true, Network: true})
			}); err != nil {
				return err
			}
			if i == 0 && r%2 == 0 {
				if err := render("titles.txt", &titles, func(b *bytes.Buffer) error {
					return ix.RenderTitleIndex(b, authorindex.RenderOptions{Format: authorindex.Text})
				}); err != nil {
					return err
				}
			}
			if err := render("subjects.txt", &subjects, func(b *bytes.Buffer) error {
				return ix.RenderSubjectIndex(b, authorindex.RenderOptions{Format: authorindex.Text})
			}); err != nil {
				return err
			}
			if err := ix.Close(); err != nil {
				return err
			}
			d, err := timed(func() error {
				var err error
				ix, err = authorindex.Open(dir, nil)
				return err
			})
			if err != nil {
				return fmt.Errorf("reopen: %w", err)
			}
			reopens = append(reopens, d)
		}
	}
	res.ImportS, res.VerifyS, res.VerifyReps = median(imports), median(verifies), len(verifies)
	res.IndexS, res.TitlesS, res.SubjectsS = median(index), median(titles), median(subjects)
	res.ReopenS = median(reopens)
	res.Stats = ix.Stats()
	if err := ix.Close(); err != nil {
		return err
	}
	var err error
	if res.StoreBytes, err = dirBytes(dir); err != nil {
		return err
	}
	if res.PeakRSSMB, err = peakRSSMB("self"); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runCompile runs the compile job on a 20k-work corpus in a child process
// and checks what it produced.
func runCompile(env *runEnv) (map[string]metric, error) {
	m := generate(env.seed, compileWorks, env.zipf)
	env.describe("compile_corpus", m.describe())
	corpus := tsv(m.works)
	if err := os.WriteFile(env.path("corpus.tsv"), corpus, 0o644); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--compile-job", env.dir)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("compile job: %w", err)
	}
	var res jobResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("compile job output: %w", err)
	}

	t := env.tally
	var bad error
	if res.Imported != len(m.works) {
		bad = fmt.Errorf("imported %d works, want %d", res.Imported, len(m.works))
	}
	ops := func(kind string, n int, err, bad error) {
		t.op(kind, err, bad)
		for i := 1; i < n; i++ {
			t.op(kind, err, nil)
		}
	}
	ops("import", rounds, nil, bad)
	bad = nil
	if res.VerifyErr != "" {
		bad = fmt.Errorf("%s", res.VerifyErr)
	}
	ops("verify", res.VerifyReps, nil, bad)
	for _, c := range []struct {
		op, file string
		reps     int
		check    func(string) error
	}{
		{"render_index", "index.txt", rounds * stepsPerRound, m.checkAuthorIndex},
		{"render_titles", "titles.txt", titleRounds, m.checkTitleIndex},
		{"render_subjects", "subjects.txt", rounds * stepsPerRound, nil},
	} {
		b, err := os.ReadFile(env.path(c.file))
		bad = nil
		if err == nil && c.check != nil {
			bad = c.check(string(b))
		}
		ops(c.op, c.reps, err, bad)
	}
	ops("reopen", rounds*stepsPerRound, nil, m.checkStats(res.Stats))
	return map[string]metric{
		"import_works_per_s":        {float64(res.Imported) / res.ImportS, "1/s"},
		"verify_s":                  {res.VerifyS, "s"},
		"render_index_s":            {res.IndexS, "s"},
		"render_titles_s":           {res.TitlesS, "s"},
		"render_subjects_s":         {res.SubjectsS, "s"},
		"reopen_s":                  {res.ReopenS, "s"},
		"store_bytes_per_user_byte": {float64(res.StoreBytes) / float64(len(corpus)), "ratio"},
		"compile_peak_rss_mb":       {res.PeakRSSMB, "MB"},
	}, nil
}
