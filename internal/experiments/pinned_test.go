package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// pinnedTables hashes each table's Header and Rows at tinyParams. A
// refactor of the runners must leave every row byte-identical; an
// intended change to an experiment regenerates the hash it moves.
var pinnedTables = map[string]string{
	"table2":        "f0893f695b891b5f",
	"fig2":          "6ae8b41cdd9e62b5",
	"fig3":          "692bc7cf9db5b790",
	"fig4":          "b8d1bd18bfd65a6a",
	"fig5":          "fab02f2519197375",
	"fig6":          "38dd1304926cb729",
	"fig7":          "1b6970187cd34c24",
	"fig8":          "1eaa71039dd06460",
	"ablate-bounds": "57cf31b599666787",
}

// tableHash is the SHA-256 prefix of the header and rows, one line each,
// cells separated by a tab.
func tableHash(t *Table) string {
	h := sha256.New()
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		h.Write([]byte(strings.Join(row, "\t") + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func TestPinnedTables(t *testing.T) {
	for _, id := range AllIDs() {
		want, ok := pinnedTables[id]
		if !ok {
			continue
		}
		t.Run(id, func(t *testing.T) {
			tab, err := sharedSession.Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if got := tableHash(tab); got != want {
				var buf bytes.Buffer
				tab.Render(&buf)
				t.Errorf("%s rows hash to %s, pinned %s:\n%s", id, got, want, buf.String())
			}
		})
	}
}
