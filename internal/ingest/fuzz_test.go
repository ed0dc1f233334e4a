package ingest

import (
	"bytes"
	"debug/elf"
	"encoding/binary"
	"os"
	"testing"

	"github.com/comet-explain/comet/internal/x86"
)

// FuzzExtractBytes drives ELF extraction — debug/elf, the DWARF line
// tables and the x86 decoder — on arbitrary bytes, the input a POST
// /v1/corpus upload hands the server. Extraction may reject the bytes,
// but it must never panic, and every block it does extract must
// re-parse from its own text to the same canonical form.
func FuzzExtractBytes(f *testing.F) {
	fixture, err := os.ReadFile(fixturePath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	for _, n := range []int{0, 4, 16, 64, len(fixture) / 4, len(fixture) / 2, len(fixture) - 1} {
		f.Add(fixture[:n])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := ExtractBytes(data, Options{})
		if err != nil {
			return
		}
		for i, b := range res.Blocks {
			again, err := x86.ParseBlock(b.Text)
			if err != nil {
				t.Fatalf("block %d does not re-parse: %v\n%s", i, err, b.Text)
			}
			if got := again.String(); got != b.Text {
				t.Fatalf("block %d re-parses to a different text:\n%s\nwant:\n%s", i, got, b.Text)
			}
		}
	})
}

// TestExtractRejectsCompressedSymtab: a symbol table flagged
// SHF_COMPRESSED makes debug/elf's Symbols panic on a slice bound — the
// first crash FuzzExtractBytes found. Extraction must answer it with an
// error instead.
func TestExtractRejectsCompressedSymtab(t *testing.T) {
	data, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := elf.NewFile(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	symtab := -1
	for i, sec := range f.Sections {
		if sec.Type == elf.SHT_SYMTAB {
			symtab = i
		}
	}
	if symtab < 0 {
		t.Fatal("fixture has no symbol table")
	}
	// sh_flags is the 8 bytes at offset 8 of the section's 64-byte
	// Elf64_Shdr; e_shoff, at offset 0x28 of the file header, locates the
	// header table.
	flags := binary.LittleEndian.Uint64(data[0x28:]) + uint64(symtab)*64 + 8
	binary.LittleEndian.PutUint64(data[flags:], binary.LittleEndian.Uint64(data[flags:])|uint64(elf.SHF_COMPRESSED))
	if res, err := ExtractBytes(data, Options{}); err == nil {
		t.Fatalf("extracted %d blocks from an ELF with a compressed symbol table, want an error", len(res.Blocks))
	}
}
