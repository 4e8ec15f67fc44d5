package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	authorindex "repro"
	"repro/internal/httpapi"
)

// fixture is a small corpus served in-process by the real program, so
// each checker can be shown to accept a true answer before it is shown
// to reject a corrupted one.
type fixture struct {
	m  *oracle
	ix *authorindex.Index
	h  http.Handler
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	m := generate(7, 600, skewZipf)
	ix, err := authorindex.Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	works := make([]authorindex.Work, len(m.works))
	for i, w := range m.works {
		works[i] = *w
	}
	if _, err := ix.AddBatch(works); err != nil {
		t.Fatal(err)
	}
	return &fixture{m: m, ix: ix, h: httpapi.New(ix, httpapi.Config{}).Handler()}
}

func (f *fixture) get(t *testing.T, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	f.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body.Bytes()
}

func (f *fixture) render(t *testing.T, titles bool) string {
	t.Helper()
	var b bytes.Buffer
	var err error
	if titles {
		err = f.ix.RenderTitleIndex(&b, authorindex.RenderOptions{Format: authorindex.Text})
	} else {
		err = f.ix.Render(&b, authorindex.RenderOptions{Format: authorindex.Text, Statistics: true, Network: true})
	}
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// busiest returns the two headings with the most works.
func (f *fixture) busiest() (string, string) {
	a, b := "", ""
	for _, h := range f.m.names {
		switch n := len(f.m.headings[h]); {
		case a == "" || n > len(f.m.headings[a]):
			a, b = h, a
		case b == "" || n > len(f.m.headings[b]):
			b = h
		}
	}
	return a, b
}

func TestCheckersAcceptProgramAnswers(t *testing.T) {
	f := newFixture(t)
	for _, op := range f.m.readOps(3, 1) {
		if err := f.m.check(op, f.get(t, op.path)); err != nil {
			t.Errorf("%s: %v", op.path, err)
		}
	}
	if err := f.m.checkAuthorIndex(f.render(t, false)); err != nil {
		t.Error(err)
	}
	if err := f.m.checkTitleIndex(f.render(t, true)); err != nil {
		t.Error(err)
	}
	if err := f.m.checkStats(f.ix.Stats()); err != nil {
		t.Error(err)
	}
	var rows []rankRow
	if err := json.Unmarshal(f.get(t, "/rank?by=works&limit=10"), &rows); err != nil {
		t.Fatal(err)
	}
	if err := f.m.checkRank("works", 10, rows); err != nil {
		t.Error(err)
	}
}

func TestCheckerRejectsDroppedPosting(t *testing.T) {
	f := newFixture(t)
	h, _ := f.busiest()
	var e wireEntry
	if err := json.Unmarshal(f.get(t, "/authors/"+url.PathEscape(h)), &e); err != nil {
		t.Fatal(err)
	}
	e.Works = e.Works[1:]
	if f.m.checkAuthor(h, e) == nil {
		t.Error("author answer missing a work accepted")
	}

	term := f.m.randomTermFor(t)
	var found []wireWork
	if err := json.Unmarshal(f.get(t, "/search?limit=0&q="+term), &found); err != nil {
		t.Fatal(err)
	}
	if f.m.checkSearch(term, authorindex.MaxLimit, found[:len(found)-1]) == nil {
		t.Error("search answer missing a work accepted")
	}

	lines := strings.Split(f.render(t, false), "\n")
	i := firstRow(t, lines)
	j := i + 1
	for j < len(lines) && isContinuation(lines[j]) {
		j++
	}
	dropped := append(append([]string{}, lines[:i]...), lines[j:]...)
	if f.m.checkAuthorIndex(strings.Join(dropped, "\n")) == nil {
		t.Error("author index missing a posting accepted")
	}
}

func TestCheckerRejectsWorkUnderWrongHeading(t *testing.T) {
	f := newFixture(t)
	a, b := f.busiest()
	var ea, eb wireEntry
	if err := json.Unmarshal(f.get(t, "/authors/"+url.PathEscape(a)), &ea); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(f.get(t, "/authors/"+url.PathEscape(b)), &eb); err != nil {
		t.Fatal(err)
	}
	eb.Works = append(eb.Works, ea.Works[0])
	if f.m.checkAuthor(b, eb) == nil {
		t.Error("work filed under a second heading accepted")
	}

	lines := strings.Split(f.render(t, false), "\n")
	i := firstRow(t, lines)
	r := []rune(lines[i])
	other := ""
	for _, h := range f.m.names {
		if len([]rune(h)) <= 24 && h != strings.TrimSpace(string(r[:24])) {
			other = h
			break
		}
	}
	lines[i] = fmt.Sprintf("%-24s", other) + string(r[24:])
	if f.m.checkAuthorIndex(strings.Join(lines, "\n")) == nil {
		t.Error("author index row under the wrong heading accepted")
	}
}

func TestCheckerRejectsTitleOutOfSectionOrder(t *testing.T) {
	f := newFixture(t)
	lines := strings.Split(strings.TrimRight(f.render(t, true), "\n"), "\n")
	i := firstRow(t, lines)
	j := i + 1
	for j < len(lines) && isContinuation(lines[j]) {
		j++
	}
	// Move the first row to the end, into the last section.
	moved := append(append(append([]string{}, lines[:i]...), lines[j:]...), lines[i:j]...)
	if f.m.checkTitleIndex(strings.Join(moved, "\n")) == nil {
		t.Error("title filed in the wrong section accepted")
	}
	// Swap the first two section headings.
	var heads []int
	for k, l := range lines {
		if s := strings.TrimSpace(l); strings.HasPrefix(s, "— ") && len([]rune(s)) == 5 {
			heads = append(heads, k)
		}
	}
	swapped := append([]string{}, lines...)
	swapped[heads[0]], swapped[heads[1]] = lines[heads[1]], lines[heads[0]]
	if f.m.checkTitleIndex(strings.Join(swapped, "\n")) == nil {
		t.Error("sections out of order accepted")
	}
}

func TestCheckerRejectsWrongRankCount(t *testing.T) {
	f := newFixture(t)
	for _, by := range []string{"works", "weighted"} {
		var rows []rankRow
		if err := json.Unmarshal(f.get(t, "/rank?limit=10&by="+by), &rows); err != nil {
			t.Fatal(err)
		}
		rows[3].Works++
		if f.m.checkRank(by, 10, rows) == nil {
			t.Errorf("rank by %s with a wrong count accepted", by)
		}
	}
	var subjects []subjectRow
	if err := json.Unmarshal(f.get(t, "/subjects"), &subjects); err != nil {
		t.Fatal(err)
	}
	subjects[0].Works--
	if f.m.checkSubjects(subjects) == nil {
		t.Error("subject with a wrong count accepted")
	}
}

// firstRow returns the index of the first line that starts an index
// row (it carries a citation in the last column).
func firstRow(t *testing.T, lines []string) int {
	t.Helper()
	for i, l := range lines {
		if r := []rune(l); len(r) == 78 && strings.HasSuffix(l, ")") {
			return i
		}
	}
	t.Fatal("no index row")
	return 0
}

// isContinuation reports whether line continues the row above it.
func isContinuation(line string) bool {
	r := []rune(line)
	return len(r) == 78 && strings.TrimSpace(string(r[62:])) == ""
}

// randomTermFor returns a term with more than one matching work.
func (m *oracle) randomTermFor(t *testing.T) string {
	t.Helper()
	for term, ids := range m.terms {
		if len(ids) > 1 {
			return term
		}
	}
	t.Fatal("no term with two works")
	return ""
}
