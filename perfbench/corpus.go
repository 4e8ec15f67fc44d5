package main

import (
	"fmt"
	"sort"
	"strings"
	"unicode"

	authorindex "repro"
)

// Corpus sizes and skew. The skewed workload draws authors with Zipf
// 1.1 over a pool of works/3 authors, which gives the 50k corpus a
// largest heading of about 7k works; the flat one draws them uniformly
// (skew 0), which leaves no heading above a dozen works. The generator
// marks a quarter of the pool as students by default, which makes the
// most prolific author a student on a quarter of the seeds; that one
// draw moves the largest heading between about 7k and 8.8k works and
// the quadratic costs with it by 30%. A near-zero share keeps the
// corpus shape the same on every seed; student headings still arise
// from student notes, whose first author always files as a student.
const (
	browseWorks   = 50000
	compileWorks  = 20000
	skewZipf      = 1.1
	corpusStudent = 0.001
)

// stopwords mirrors the title-search stopword list the program
// documents: a query made only of these matches nothing, so the
// generator never draws one as a search term.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "as": true, "at": true,
	"by": true, "for": true, "from": true, "in": true, "into": true,
	"is": true, "it": true, "its": true, "of": true, "on": true,
	"or": true, "the": true, "to": true, "under": true, "upon": true,
	"with": true, "v": true, "vs": true,
}

// foldRunes covers the accented letters the corpus generator puts in
// names; titles are ASCII.
var foldRunes = map[rune]string{
	'á': "a", 'ä': "a", 'å': "a", 'ç': "c", 'č': "c", 'é': "e", 'í': "i",
	'ñ': "n", 'ó': "o", 'ö': "o", 'ø': "o", 'ř': "r", 'š': "s", 'ú': "u",
	'ü': "u", 'ż': "z", 'ž': "z",
}

// fold lower-cases s and strips the accents foldRunes knows.
func fold(s string) string {
	var b strings.Builder
	for _, r := range s {
		r = unicode.ToLower(r)
		if rep, ok := foldRunes[r]; ok {
			b.WriteString(rep)
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

// headingOf is the index-order form of an author: "particle Family,
// Given, Suffix" with a trailing "*" for student bylines.
func headingOf(a authorindex.Author) string {
	var b strings.Builder
	if a.Particle != "" {
		b.WriteString(a.Particle + " ")
	}
	b.WriteString(a.Family)
	if a.Given != "" {
		b.WriteString(", " + a.Given)
	}
	if a.Suffix != "" {
		b.WriteString(", " + a.Suffix)
	}
	if a.Student {
		b.WriteByte('*')
	}
	return b.String()
}

// primaryOf is the folded text a heading files under: the particle (the
// default collation groups particles with the family name) and family.
func primaryOf(a authorindex.Author) string {
	s := a.Family
	if a.Particle != "" {
		s = a.Particle + " " + a.Family
	}
	return fold(s)
}

// titleTerms splits a title into search terms: folded alphanumeric runs
// without stopwords, each term once.
func titleTerms(title string) []string {
	var out []string
	seen := map[string]bool{}
	for _, f := range strings.FieldsFunc(fold(title), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9')
	}) {
		if !stopwords[f] && !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// sectionLetter is the letter a title files under in the title index:
// leading articles are ignored.
func sectionLetter(title string) byte {
	for _, art := range []string{"The ", "A ", "An "} {
		if strings.HasPrefix(title, art) && len(title) > len(art) {
			title = title[len(art):]
			break
		}
	}
	for _, c := range []byte(fold(title)) {
		switch {
		case c >= 'a' && c <= 'z':
			return c - 'a' + 'A'
		case c >= '0' && c <= '9':
			return '#'
		}
	}
	return '#'
}

// oracle is the benchmark's own brute-force view of a generated corpus.
// Every expected answer comes from it; it never holds program output.
type oracle struct {
	works    []*authorindex.Work
	byID     map[authorindex.WorkID]*authorindex.Work
	headings map[string][]authorindex.WorkID // heading → IDs, citation order
	primary  map[string]string               // heading → primaryOf
	names    []string                        // headings, sorted
	years    map[int][]authorindex.WorkID
	terms    map[string][]authorindex.WorkID
	subjects map[string]int
	postings int
	students int
	pairs    int // distinct coauthoring heading pairs
	zipf     float64
}

// generate draws the seeded corpus and builds its model.
func generate(seed int64, works int, zipf float64) *oracle {
	corpus := authorindex.GenerateCorpus(authorindex.CorpusConfig{Seed: seed, Works: works, ZipfS: zipf, StudentProb: corpusStudent})
	m := newModel(corpus)
	m.zipf = zipf
	return m
}

func newModel(works []*authorindex.Work) *oracle {
	m := &oracle{
		works:    works,
		byID:     make(map[authorindex.WorkID]*authorindex.Work, len(works)),
		headings: map[string][]authorindex.WorkID{},
		primary:  map[string]string{},
		years:    map[int][]authorindex.WorkID{},
		terms:    map[string][]authorindex.WorkID{},
		subjects: map[string]int{},
	}
	pairs := map[[2]string]bool{}
	for _, w := range works {
		m.byID[w.ID] = w
		for i, a := range w.Authors {
			h := headingOf(a)
			m.headings[h] = append(m.headings[h], w.ID)
			m.primary[h] = primaryOf(a)
			m.postings++
			if a.Student {
				m.students++
			}
			for _, b := range w.Authors[i+1:] {
				p := [2]string{h, headingOf(b)}
				if p[0] > p[1] {
					p[0], p[1] = p[1], p[0]
				}
				pairs[p] = true
			}
		}
		for _, t := range titleTerms(w.Title) {
			m.terms[t] = append(m.terms[t], w.ID)
		}
		m.years[w.Citation.Year] = append(m.years[w.Citation.Year], w.ID)
		for _, s := range w.Subjects {
			m.subjects[s]++
		}
	}
	m.pairs = len(pairs)
	// The generator emits works in citation order with ascending IDs,
	// so ID order is citation order; sort anyway so the model does not
	// depend on it.
	byCite := func(ids []authorindex.WorkID) {
		sort.Slice(ids, func(i, j int) bool {
			return m.byID[ids[i]].Citation.Compare(m.byID[ids[j]].Citation) < 0
		})
	}
	for h, ids := range m.headings {
		byCite(ids)
		m.names = append(m.names, h)
	}
	sort.Strings(m.names)
	for _, ids := range m.terms {
		byCite(ids)
	}
	for _, ids := range m.years {
		byCite(ids)
	}
	return m
}

// largestHeading returns the heading with the most works.
func (m *oracle) largestHeading() (string, int) {
	best, n := "", 0
	for _, h := range m.names {
		if len(m.headings[h]) > n {
			best, n = h, len(m.headings[h])
		}
	}
	return best, n
}

// longestTerm returns the title term with the longest posting list.
func (m *oracle) longestTerm() (string, int) {
	best, n := "", 0
	for t, ids := range m.terms {
		if len(ids) > n || len(ids) == n && t < best {
			best, n = t, len(ids)
		}
	}
	return best, n
}

// tsv encodes works in the program's TSV import format: one line per
// posting with heading, title, kind, citation and " | "-joined
// subjects.
func tsv(works []*authorindex.Work) []byte {
	var b strings.Builder
	for _, w := range works {
		subj := strings.Join(w.Subjects, " | ")
		for _, a := range w.Authors {
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\t%s\n", headingOf(a), w.Title, w.Kind, w.Citation, subj)
		}
	}
	return []byte(b.String())
}

// describe is the corpus line every report carries.
func (m *oracle) describe() map[string]any {
	lh, ln := m.largestHeading()
	lt, lp := m.longestTerm()
	return map[string]any{
		"works": len(m.works), "headings": len(m.names), "postings": m.postings,
		"zipf": m.zipf, "largest_heading": lh, "largest_heading_works": ln,
		"longest_term": lt, "longest_term_postings": lp,
	}
}
