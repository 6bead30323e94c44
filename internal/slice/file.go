package slice

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/isa"
	"repro/internal/pinball"
	"repro/internal/tracer"
)

// FileEntry is a slice member in session-independent form: thread id and
// per-thread dynamic instruction index (stable across replays of the same
// pinball thanks to PinPlay's repeatability guarantee).
type FileEntry struct {
	Tid int
	Idx int64
	PC  int64
	Src string
}

// FileDep is a dependence edge in session-independent form.
type FileDep struct {
	FromTid int
	FromIdx int64
	ToTid   int
	ToIdx   int64
	Kind    DepKind
	// Loc is the location a data dependence carries (0 for control
	// edges and in files written before it was kept).
	Loc tracer.Loc
	// Provenance/Confidence carry the flight-recorder annotation (zero
	// for slices over ordinary full traces and for old slice files).
	Provenance tracer.Provenance
	Confidence float64
}

// File is the persisted form of a slice: the paper's "normal slice file"
// (members and dependences for browsing/navigation) together with the
// "special slice file" content (the code exclusion regions the relogger
// consumes). One file therefore serves both slice navigation in a later
// debug session and slice-pinball generation.
type File struct {
	Program      string
	CriterionTid int
	CriterionIdx int64
	Members      []FileEntry
	Deps         []FileDep
	Exclusions   []pinball.Exclusion
	Stats        Stats
	// Prov is the provenance breakdown of an annotated slice (nil
	// otherwise, including for files written before flight-recorder mode).
	Prov *ProvSummary
}

// ToFile converts a computed slice (plus its exclusion regions) into
// persistable form.
func ToFile(prog *isa.Program, tr *tracer.Trace, sl *Slice, exclusions []pinball.Exclusion) *File {
	f := &File{
		Program:      prog.Name,
		CriterionTid: int(sl.Criterion.Tid),
		CriterionIdx: tr.Entry(sl.Criterion).Idx,
		Exclusions:   exclusions,
		Stats:        sl.Stats,
		Prov:         sl.Prov,
	}
	for _, m := range sl.Members {
		e := tr.Entry(m)
		f.Members = append(f.Members, FileEntry{
			Tid: int(m.Tid), Idx: e.Idx, PC: e.PC, Src: prog.SourceOf(e.PC),
		})
	}
	for _, d := range sl.Deps() {
		fe, te := tr.Entry(d.From), tr.Entry(d.To)
		f.Deps = append(f.Deps, FileDep{
			FromTid: int(d.From.Tid), FromIdx: fe.Idx,
			ToTid: int(d.To.Tid), ToIdx: te.Idx,
			Kind: d.Kind, Loc: d.Loc, Provenance: d.Provenance, Confidence: d.Confidence,
		})
	}
	return f
}

// Resolve maps the persisted members back onto a trace collected from a
// fresh replay of the same pinball, reconstructing a Slice usable for
// navigation. It fails if any member falls outside the trace (i.e. the
// file does not belong to this pinball).
func (f *File) Resolve(tr *tracer.Trace) (*Slice, error) {
	crit, ok := tr.RefOf(f.CriterionTid, f.CriterionIdx)
	if !ok {
		return nil, fmt.Errorf("slice: criterion tid %d idx %d outside trace", f.CriterionTid, f.CriterionIdx)
	}
	sl := newSlice(tr, crit)
	for _, m := range f.Members {
		ref, ok := tr.RefOf(m.Tid, m.Idx)
		g, inGlobal := tr.GlobalPosOf(ref)
		if !ok || !inGlobal {
			return nil, fmt.Errorf("slice: member tid %d idx %d outside trace", m.Tid, m.Idx)
		}
		sl.addPos(g)
		sl.Members = append(sl.Members, ref)
	}
	for _, d := range f.Deps {
		from, ok1 := tr.RefOf(d.FromTid, d.FromIdx)
		to, ok2 := tr.RefOf(d.ToTid, d.ToIdx)
		if ok1 && ok2 {
			sl.addDep(DepEdge{
				From: from, To: to, Kind: d.Kind, Loc: d.Loc,
				Provenance: d.Provenance, Confidence: d.Confidence,
			})
		}
	}
	sl.Stats = f.Stats
	sl.Prov = f.Prov
	return sl, nil
}

// Slice-file framing, mirroring the pinball format's magic+version.
const (
	sliceFileMagic     = "DRSL"
	sliceFormatVersion = byte(1)
)

// Save writes the slice file, gob-encoded and compressed.
func (f *File) Save(path string) error {
	w, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("slice: %w", err)
	}
	defer w.Close()
	if _, err := w.Write(append([]byte(sliceFileMagic), sliceFormatVersion)); err != nil {
		return fmt.Errorf("slice: %w", err)
	}
	zw := gzip.NewWriter(w)
	if err := gob.NewEncoder(zw).Encode(f); err != nil {
		return fmt.Errorf("slice: encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return w.Close()
}

// LoadFile reads a slice file.
func LoadFile(path string) (*File, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("slice: %w", err)
	}
	defer r.Close()
	header := make([]byte, len(sliceFileMagic)+1)
	if _, err := io.ReadFull(r, header); err != nil || string(header[:len(sliceFileMagic)]) != sliceFileMagic {
		return nil, fmt.Errorf("slice: %s is not a slice file", path)
	}
	if v := header[len(sliceFileMagic)]; v != sliceFormatVersion {
		return nil, fmt.Errorf("slice: %s has format version %d; this build reads %d", path, v, sliceFormatVersion)
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("slice: %w", err)
	}
	defer zr.Close()
	var f File
	if err := gob.NewDecoder(zr).Decode(&f); err != nil {
		return nil, fmt.Errorf("slice: decode: %w", err)
	}
	return &f, nil
}

// WriteText renders the slice human-readably: members grouped by source
// position with dynamic counts, then the dependence edges, then the
// exclusion regions in the paper's notation.
func (f *File) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "# dynamic slice for %s, criterion tid=%d idx=%d\n",
		f.Program, f.CriterionTid, f.CriterionIdx)
	fmt.Fprintf(w, "# %d dynamic instructions in slice\n", len(f.Members))
	if f.Prov != nil {
		fmt.Fprintf(w, "# provenance: %s\n", f.Prov)
		if !f.Prov.Exact() {
			fmt.Fprintf(w, "# WARNING: slice crosses flight-recorder gaps; non-exact edges are tagged below\n")
		}
	}

	type srcLine struct {
		src   string
		count int
		tids  map[int]bool
	}
	bySrc := map[string]*srcLine{}
	var order []string
	for _, m := range f.Members {
		sl, ok := bySrc[m.Src]
		if !ok {
			sl = &srcLine{src: m.Src, tids: map[int]bool{}}
			bySrc[m.Src] = sl
			order = append(order, m.Src)
		}
		sl.count++
		sl.tids[m.Tid] = true
	}
	sort.Strings(order)
	fmt.Fprintf(w, "\n[statements]\n")
	for _, src := range order {
		sl := bySrc[src]
		tids := make([]int, 0, len(sl.tids))
		for t := range sl.tids {
			tids = append(tids, t)
		}
		sort.Ints(tids)
		var ts []string
		for _, t := range tids {
			ts = append(ts, fmt.Sprintf("T%d", t))
		}
		fmt.Fprintf(w, "%-32s x%-6d threads=%s\n", src, sl.count, strings.Join(ts, ","))
	}

	fmt.Fprintf(w, "\n[dependences] (%d edges)\n", len(f.Deps))
	for _, d := range f.Deps {
		fmt.Fprintf(w, "%s: T%d@%d -> T%d@%d", d.Kind, d.FromTid, d.FromIdx, d.ToTid, d.ToIdx)
		if f.Prov != nil && d.Provenance != tracer.ProvExact {
			fmt.Fprintf(w, "  [%s, confidence %.2f]", d.Provenance, d.Confidence)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\n[exclusion regions] (%d)\n", len(f.Exclusions))
	for _, e := range f.Exclusions {
		fmt.Fprintf(w, "%s  idx=[%d,%d)\n", e, e.FromIdx, e.ToIdx)
	}
	return nil
}
