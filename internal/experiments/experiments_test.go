package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"github.com/comet-explain/comet/internal/x86"
)

// tinyParams keeps integration runs fast.
func tinyParams() Params {
	p := DefaultParams()
	p.Blocks = 5
	p.Seeds = 1
	p.SweepBlocks = 4
	p.CoverageSamples = 120
	p.TrainBlocks = 120
	p.Epochs = 2
	p.Hidden = 14
	return p
}

// sharedSession caches tiny trained models across the tests in this file.
var sharedSession = NewSession(tinyParams())

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %s has no cell (%d,%d): %+v", tab.ID, row, col, tab.Rows)
	}
	return tab.Rows[row][col]
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.Fields(s)[0]
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

func TestTable2Shape(t *testing.T) {
	tab, err := sharedSession.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Table 2 should have 3 rows, got %d", len(tab.Rows))
	}
	random := parsePct(t, cell(t, tab, 0, 1))
	cometAcc := parsePct(t, cell(t, tab, 2, 1))
	if !(cometAcc > random) {
		t.Errorf("COMET (%.1f%%) must beat random (%.1f%%) — the paper's headline ordering", cometAcc, random)
	}
	if cometAcc < 60 {
		t.Errorf("COMET accuracy %.1f%% implausibly low even at tiny scale", cometAcc)
	}
}

func TestTable3Shape(t *testing.T) {
	tab, err := sharedSession.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Table 3 should have 4 rows (I/U × HSW/SKL), got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		prec := parsePct(t, row[1])
		cov := parsePct(t, row[2])
		if prec < 0.4 || prec > 1.0 {
			t.Errorf("%s precision %.2f out of plausible range", row[0], prec)
		}
		if cov <= 0 || cov > 1.0 {
			t.Errorf("%s coverage %.2f out of range", row[0], cov)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	tab, err := sharedSession.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Figure 2 should have 4 rows, got %d", len(tab.Rows))
	}
	// Ithemal rows come first, uiCA rows after; per arch, Ithemal's MAPE
	// must exceed uiCA's (the paper's error ordering).
	ithemalHSW := parsePct(t, cell(t, tab, 0, 1))
	uicaHSW := parsePct(t, cell(t, tab, 2, 1))
	if !(ithemalHSW > uicaHSW) {
		t.Errorf("Ithemal MAPE (%.1f) must exceed uiCA MAPE (%.1f)", ithemalHSW, uicaHSW)
	}
}

func TestSweepsRun(t *testing.T) {
	for _, id := range []string{"fig5", "fig6", "fig8"} {
		tab, err := sharedSession.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) < 2 {
			t.Errorf("%s has %d rows", id, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			acc := parsePct(t, row[len(row)-1])
			if acc < 0 || acc > 100 {
				t.Errorf("%s accuracy %v out of range", id, acc)
			}
		}
	}
}

func TestAppendixFShape(t *testing.T) {
	tab, err := sharedSession.AppendixF()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Appendix F should have 4 rows, got %d", len(tab.Rows))
	}
	// |Π̂({inst})| ≤ |Π̂(∅)| per block (Π monotonicity).
	for i := 0; i < 4; i += 2 {
		empty := cell(t, tab, i, 2)
		preserved := cell(t, tab, i+1, 2)
		if expOf(t, preserved) > expOf(t, empty) {
			t.Errorf("space grew under preservation: %s vs %s", preserved, empty)
		}
	}
}

func expOf(t *testing.T, s string) int {
	t.Helper()
	i := strings.Index(s, "e+")
	if i < 0 {
		t.Fatalf("bad magnitude %q", s)
	}
	v, err := strconv.Atoi(s[i+2:])
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRunUnknownID(t *testing.T) {
	if _, err := sharedSession.Run("nope"); err == nil {
		t.Error("unknown experiment id should error")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}, {"β1", "∅"}, {"|Π̂|", "±"}},
		Notes:  []string{"n"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "a", "bb", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	// The second column starts at one screen column on every line, whatever
	// bytes the first column's cells take (β, ∅, ± and the combining
	// circumflex of Π̂ are all one column or less).
	lines := strings.Split(out, "\n")[1 : len(tab.Rows)+3]
	for _, line := range lines {
		last := strings.Fields(line)[1]
		if col := screenColumns(line[:strings.LastIndex(line, last)]); col != 5 {
			t.Errorf("second column of %q starts at column %d, want 5:\n%s", line, col, out)
		}
	}
}

func screenColumns(s string) int {
	n := 0
	for _, r := range s {
		if !unicode.Is(unicode.Mn, r) {
			n++
		}
	}
	return n
}

func TestSessionCachesIthemal(t *testing.T) {
	m1 := sharedSession.Ithemal(x86.Haswell)
	m2 := sharedSession.Ithemal(x86.Haswell)
	if m1 != m2 {
		t.Error("session should cache the trained model")
	}
}

func TestAllIDsRunnable(t *testing.T) {
	// Every advertised experiment id must dispatch (cheap ones actually
	// run above; here we only verify the switch covers AllIDs).
	known := map[string]bool{
		"table2": true, "table3": true, "fig2": true, "fig3": true,
		"fig4": true, "fig5": true, "fig6": true, "fig7": true,
		"fig8": true, "appf": true, "cases": true, "ablate-bounds": true,
	}
	for _, id := range AllIDs() {
		if !known[id] {
			t.Errorf("AllIDs contains %q with no dispatch entry", id)
		}
	}
}
