package main

import (
	"bufio"
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"

	authorindex "repro"
)

// Wire shapes of the HTTP answers, decoded independently of the
// program's own types.
type wireWork struct {
	ID       authorindex.WorkID `json:"id"`
	Title    string             `json:"title"`
	Kind     string             `json:"kind"`
	Authors  []string           `json:"authors"`
	Citation string             `json:"citation"`
}

type wireEntry struct {
	Heading string     `json:"heading"`
	Works   []wireWork `json:"works"`
}

type rankRow struct {
	Heading  string  `json:"heading"`
	Works    int     `json:"works"`
	Weighted float64 `json:"weighted"`
}

type subjectRow struct {
	Subject string
	Works   int
}

// checkWork compares one answered work with the generated one.
func checkWork(got wireWork, want *authorindex.Work) error {
	if got.ID != want.ID || got.Title != want.Title || got.Kind != want.Kind.String() ||
		got.Citation != want.Citation.String() || len(got.Authors) != len(want.Authors) {
		return fmt.Errorf("work %d: got %+v", want.ID, got)
	}
	for i, a := range want.Authors {
		if got.Authors[i] != headingOf(a) {
			return fmt.Errorf("work %d: author %d is %q, want %q", want.ID, i, got.Authors[i], headingOf(a))
		}
	}
	return nil
}

// checkList requires exactly the works want, in that order.
func (m *oracle) checkList(what string, got []wireWork, want []authorindex.WorkID) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d works, want %d", what, len(got), len(want))
	}
	for i, id := range want {
		if err := checkWork(got[i], m.byID[id]); err != nil {
			return fmt.Errorf("%s: position %d: %w", what, i, err)
		}
	}
	return nil
}

func head(ids []authorindex.WorkID, limit int) []authorindex.WorkID {
	if limit > 0 && len(ids) > limit {
		return ids[:limit]
	}
	return ids
}

// checkSearch: the first limit works, in citation order, whose titles
// contain the term.
func (m *oracle) checkSearch(term string, limit int, got []wireWork) error {
	return m.checkList("search "+term, got, head(m.terms[term], limit))
}

// checkAuthor: the heading with every work filed under it.
func (m *oracle) checkAuthor(heading string, got wireEntry) error {
	if got.Heading != heading {
		return fmt.Errorf("author %q: answered heading %q", heading, got.Heading)
	}
	return m.checkList("author "+heading, got.Works, m.headings[heading])
}

// checkAuthorsPage: min(limit, matches) distinct corpus headings whose
// filing text starts with the prefix, each with all its works.
func (m *oracle) checkAuthorsPage(prefix string, limit int, got []wireEntry) error {
	p := fold(prefix)
	matches := 0
	for _, h := range m.names {
		if strings.HasPrefix(m.primary[h], p) {
			matches++
		}
	}
	if want := min(limit, matches); len(got) != want {
		return fmt.Errorf("authors %q: %d headings, want %d", prefix, len(got), want)
	}
	seen := map[string]bool{}
	for _, e := range got {
		if _, ok := m.headings[e.Heading]; !ok || seen[e.Heading] || !strings.HasPrefix(m.primary[e.Heading], p) {
			return fmt.Errorf("authors %q: unexpected heading %q", prefix, e.Heading)
		}
		seen[e.Heading] = true
		if err := m.checkAuthor(e.Heading, e); err != nil {
			return fmt.Errorf("authors %q: %w", prefix, err)
		}
	}
	return nil
}

// checkYears: the first limit works published in [from, to].
func (m *oracle) checkYears(from, to, limit int, got []wireWork) error {
	var want []authorindex.WorkID
	for y := from; y <= to && len(want) < limit; y++ {
		want = append(want, head(m.years[y], limit-len(want))...)
	}
	return m.checkList(fmt.Sprintf("years %d-%d", from, to), got, want)
}

// checkRank: min(limit, headings) distinct headings, each with its true
// work count, best first by the rank key.
func (m *oracle) checkRank(by string, limit int, got []rankRow) error {
	if want := min(limit, len(m.names)); len(got) != want {
		return fmt.Errorf("rank %s: %d rows, want %d", by, len(got), want)
	}
	seen := map[string]bool{}
	for i, r := range got {
		ids, ok := m.headings[r.Heading]
		if !ok || seen[r.Heading] {
			return fmt.Errorf("rank %s: unexpected heading %q", by, r.Heading)
		}
		seen[r.Heading] = true
		if r.Works != len(ids) {
			return fmt.Errorf("rank %s: %q has %d works, want %d", by, r.Heading, r.Works, len(ids))
		}
		if i == 0 {
			continue
		}
		switch by {
		case "works":
			if r.Works > got[i-1].Works {
				return fmt.Errorf("rank works: row %d out of order", i)
			}
		case "weighted":
			if r.Weighted > got[i-1].Weighted {
				return fmt.Errorf("rank weighted: row %d out of order", i)
			}
		}
	}
	if by == "works" {
		// Ties may order differently, but the top counts may not.
		counts := make([]int, 0, len(m.names))
		for _, h := range m.names {
			counts = append(counts, len(m.headings[h]))
		}
		sort.Sort(sort.Reverse(sort.IntSlice(counts)))
		for i, r := range got {
			if r.Works != counts[i] {
				return fmt.Errorf("rank works: row %d counts %d, want %d", i, r.Works, counts[i])
			}
		}
	}
	return nil
}

// checkSubjects: every subject with its work count.
func (m *oracle) checkSubjects(got []subjectRow) error {
	if len(got) != len(m.subjects) {
		return fmt.Errorf("subjects: %d rows, want %d", len(got), len(m.subjects))
	}
	for _, s := range got {
		if m.subjects[s.Subject] != s.Works {
			return fmt.Errorf("subjects: %q counts %d, want %d", s.Subject, s.Works, m.subjects[s.Subject])
		}
	}
	return nil
}

// checkStats compares a reopened index's counters with the corpus.
func (m *oracle) checkStats(st authorindex.Stats) error {
	want := []struct {
		name      string
		got, want int
	}{
		{"works", st.Works, len(m.works)},
		{"authors", st.Authors, len(m.names)},
		{"postings", st.Postings, m.postings},
		{"student notes", st.StudentNotes, m.students},
		{"cross-refs", st.CrossRefs, 0},
		{"terms", st.Terms, len(m.terms)},
		{"graph nodes", st.GraphNodes, len(m.names)},
		{"graph edges", st.GraphEdges, m.pairs},
	}
	for _, c := range want {
		if c.got != c.want {
			return fmt.Errorf("stats: %s %d, want %d", c.name, c.got, c.want)
		}
	}
	return nil
}

// textRow is one entry of a rendered text index: its two text columns
// joined across wrapped lines, its citation and its letter section.
type textRow struct {
	first, second, cite string
	section             string
}

// parseTextIndex reads the body of a text-format index whose rows are
// laid out as "%-*s %-*s %16s" in 78 columns, stopping at the first
// appendix heading.
func parseTextIndex(text string, firstW int) ([]textRow, error) {
	const width, citeW = 78, 16
	secondW := width - citeW - 2 - firstW
	var rows []textRow
	section := ""
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		trim := strings.TrimSpace(line)
		if strings.HasPrefix(trim, "— ") && strings.HasSuffix(trim, " —") {
			label := strings.TrimSuffix(strings.TrimPrefix(trim, "— "), " —")
			if utf8.RuneCountInString(label) != 1 {
				break // an appendix begins
			}
			section = label
			continue
		}
		r := []rune(line)
		if len(r) != width || strings.Trim(trim, "─") == "" {
			continue
		}
		first := strings.TrimSpace(string(r[:firstW]))
		second := strings.TrimSpace(string(r[firstW+1 : firstW+1+secondW]))
		cite := strings.TrimSpace(string(r[width-citeW:]))
		if cite != "" {
			rows = append(rows, textRow{first: first, second: second, cite: cite, section: section})
			continue
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("continuation line before any row: %q", line)
		}
		last := &rows[len(rows)-1]
		last.first = joinWords(last.first, first)
		last.second = joinWords(last.second, second)
	}
	return rows, sc.Err()
}

func joinWords(a, b string) string {
	switch {
	case b == "":
		return a
	case a == "":
		return b
	}
	return a + " " + b
}

func (m *oracle) byCitation() map[string]*authorindex.Work {
	out := make(map[string]*authorindex.Work, len(m.works))
	for _, w := range m.works {
		out[w.Citation.String()] = w
	}
	return out
}

// checkAuthorIndex requires the text author index to list every corpus
// posting exactly once, under its heading, with its title.
func (m *oracle) checkAuthorIndex(text string) error {
	rows, err := parseTextIndex(text, 24)
	if err != nil {
		return fmt.Errorf("author index: %w", err)
	}
	cites := m.byCitation()
	seen := make(map[string]bool, m.postings)
	for _, r := range rows {
		w, ok := cites[r.cite]
		if !ok {
			return fmt.Errorf("author index: unknown citation %q", r.cite)
		}
		filed := false
		for _, a := range w.Authors {
			filed = filed || headingOf(a) == r.first
		}
		key := r.first + "\x00" + r.cite
		if !filed || seen[key] {
			return fmt.Errorf("author index: %q listed under %q (again or wrongly)", r.cite, r.first)
		}
		seen[key] = true
		if r.second != w.Title {
			return fmt.Errorf("author index: %q titled %q, want %q", r.cite, r.second, w.Title)
		}
	}
	if len(seen) != m.postings {
		return fmt.Errorf("author index: %d postings listed, want %d", len(seen), m.postings)
	}
	return nil
}

// checkTitleIndex requires the text title index to list every work
// exactly once, in its own letter section, with sections in order.
func (m *oracle) checkTitleIndex(text string) error {
	rows, err := parseTextIndex(text, 36)
	if err != nil {
		return fmt.Errorf("title index: %w", err)
	}
	cites := m.byCitation()
	seen := make(map[string]bool, len(m.works))
	last := ""
	for _, r := range rows {
		w, ok := cites[r.cite]
		if !ok || seen[r.cite] {
			return fmt.Errorf("title index: citation %q unknown or listed twice", r.cite)
		}
		seen[r.cite] = true
		if r.first != w.Title {
			return fmt.Errorf("title index: %q titled %q, want %q", r.cite, r.first, w.Title)
		}
		if r.section != string(sectionLetter(w.Title)) {
			return fmt.Errorf("title index: %q filed under section %q", w.Title, r.section)
		}
		if r.section < last {
			return fmt.Errorf("title index: section %q follows %q", r.section, last)
		}
		last = r.section
	}
	if len(seen) != len(m.works) {
		return fmt.Errorf("title index: %d works listed, want %d", len(seen), len(m.works))
	}
	return nil
}
