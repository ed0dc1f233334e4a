package ingest

import (
	"bytes"
	"debug/dwarf"
	"debug/elf"
	"fmt"
	"io"
	"os"
	"sort"
)

// elfMagic is the ELF identification prefix.
var elfMagic = []byte{0x7F, 'E', 'L', 'F'}

// IsELF reports whether data starts with the ELF magic.
func IsELF(data []byte) bool { return bytes.HasPrefix(data, elfMagic) }

// ExtractFile extracts a corpus from the ELF binary at path.
func ExtractFile(path string, opts Options) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := Extract(f, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// ExtractBytes extracts a corpus from an in-memory ELF image.
func ExtractBytes(data []byte, opts Options) (*Result, error) {
	return Extract(bytes.NewReader(data), opts)
}

// Extract extracts a corpus from an ELF image. Only x86-64 binaries are
// accepted: the decoder is specific to that architecture.
func Extract(r io.ReaderAt, opts Options) (res *Result, err error) {
	// debug/elf is not hardened against adversarial input: some malformed
	// headers make it panic instead of returning an error. Uploads are
	// attacker-controlled bytes, so a panic is one more rejection.
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("ingest: malformed ELF: %v", p)
		}
	}()
	f, err := elf.NewFile(r)
	if err != nil {
		return nil, fmt.Errorf("ingest: not a valid ELF: %w", err)
	}
	defer f.Close()
	if f.Machine != elf.EM_X86_64 {
		return nil, fmt.Errorf("ingest: unsupported machine %v (need EM_X86_64)", f.Machine)
	}

	maxLen := opts.MaxBlockLen
	if maxLen <= 0 {
		maxLen = DefaultMaxBlockLen
	}

	funcs := functionSymbols(f)
	lines := lineEntries(f)

	res = &Result{}
	seen := make(map[string]int)
	for _, sec := range f.Sections {
		if sec.Type != elf.SHT_PROGBITS || sec.Flags&elf.SHF_EXECINSTR == 0 {
			continue
		}
		code, err := sec.Data()
		if err != nil {
			return nil, fmt.Errorf("ingest: section %s: %w", sec.Name, err)
		}
		res.Stats.Sections++
		regions := sectionRegions(sec, code, funcs)
		res.Stats.Functions += len(regions)
		for _, reg := range regions {
			res.extractRegion(reg, lines, seen, maxLen)
		}
	}
	res.Stats.Blocks = len(res.Blocks)
	return res, nil
}

// funcSym is a function symbol with its address range start.
type funcSym struct {
	name string
	addr uint64
	size uint64
}

// functionSymbols returns the binary's STT_FUNC symbols sorted by
// address. An empty result (stripped binary) makes each executable
// section one region.
func functionSymbols(f *elf.File) []funcSym {
	syms, err := f.Symbols()
	if err != nil {
		return nil
	}
	var funcs []funcSym
	for _, s := range syms {
		if elf.ST_TYPE(s.Info) != elf.STT_FUNC || s.Name == "" {
			continue
		}
		funcs = append(funcs, funcSym{name: s.Name, addr: s.Value, size: s.Size})
	}
	sort.Slice(funcs, func(i, j int) bool {
		if funcs[i].addr != funcs[j].addr {
			return funcs[i].addr < funcs[j].addr
		}
		return funcs[i].name < funcs[j].name
	})
	return funcs
}

// sectionRegions splits a section's code into function-attributed
// regions. A function extends to the next function's start (symbol
// sizes are advisory and often zero in hand-written assembly), and
// bytes before the first symbol form an unnamed region.
func sectionRegions(sec *elf.Section, code []byte, funcs []funcSym) []region {
	lo, hi := sec.Addr, sec.Addr+uint64(len(code))
	var inSec []funcSym
	for _, fs := range funcs {
		if fs.addr >= lo && fs.addr < hi {
			inSec = append(inSec, fs)
		}
	}
	if len(inSec) == 0 {
		return []region{{name: "", addr: lo, code: code}}
	}
	var regs []region
	if first := inSec[0].addr; first > lo {
		regs = append(regs, region{name: "", addr: lo, code: code[:first-lo]})
	}
	for i, fs := range inSec {
		end := hi
		if i+1 < len(inSec) {
			end = inSec[i+1].addr
		}
		regs = append(regs, region{name: fs.name, addr: fs.addr, code: code[fs.addr-lo : end-lo]})
	}
	return regs
}

// lineEntries builds the sorted DWARF address → line mapping, or an
// empty table when debug info is absent or unreadable.
func lineEntries(f *elf.File) lineTable {
	d, err := f.DWARF()
	if err != nil {
		return nil
	}
	var table lineTable
	dr := d.Reader()
	for {
		ent, err := dr.Next()
		if err != nil || ent == nil {
			break
		}
		if ent.Tag != dwarf.TagCompileUnit {
			continue
		}
		lr, err := d.LineReader(ent)
		if err != nil || lr == nil {
			continue
		}
		var le dwarf.LineEntry
		for lr.Next(&le) == nil {
			if le.EndSequence || le.File == nil {
				continue
			}
			table = append(table, lineEntry{addr: le.Address, file: le.File.Name, line: le.Line})
		}
	}
	sort.Slice(table, func(i, j int) bool { return table[i].addr < table[j].addr })
	return table
}
