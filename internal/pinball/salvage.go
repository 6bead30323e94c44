package pinball

import (
	"fmt"
	"os"
	"slices"
)

// Salvage recovers a usable pinball from a damaged file. Where Decode
// must reject a torn or bit-flipped file outright, Salvage keeps the
// longest prefix of CRC-valid, decodable frames (and, when the frames
// disagree with the manifest, only those before the first disagreement)
// and reconstitutes a consistent partial pinball from it:
//
//   - When the manifest proves that only optional frames were lost
//     (order edges, divergence checkpoints, the ring frame, the commit
//     frame), the region is rebuilt whole. Every file Save writes opens
//     with its manifest, as does every version 2 file.
//   - A flight-recorder journal interrupted before its ring frame
//     becomes a fully evicted pinball: every sealed window is a gap that
//     replay re-derives by bridging.
//   - Otherwise — an interrupted recording journal (no commit frame: a
//     crash or kill mid recording) — the prefix is truncated to the last
//     divergence checkpoint covered by its surviving schedule chunks: the
//     result replays bit-identically to the original execution up to that
//     checkpoint, and slices like any other pinball.
//
// Damage that costs data replay cannot do without — the initial state,
// the schedule, recorded syscall results, a slice pinball's injections,
// or (when truncation is needed) every checkpoint — fails with
// ErrUnsalvageable. The report describes what was kept, what was lost
// and where the damage sits, whether salvage succeeded or not.

// SalvageReport describes a salvage attempt.
type SalvageReport struct {
	Path    string `json:"path,omitempty"`
	Version byte   `json:"version"`

	// Intact is true when the file decoded cleanly and was returned
	// unchanged (nothing to salvage).
	Intact bool `json:"intact"`
	// Committed reports whether a journal had its commit frame.
	Committed bool `json:"committed,omitempty"`

	BytesTotal int64 `json:"bytes_total"`
	BytesKept  int64 `json:"bytes_kept"`

	// DamageOffset is the absolute byte offset of the first damaged
	// frame (-1 when the framing itself was fine, e.g. an uncommitted but
	// untorn journal). DamageCause is the typed scan error's text.
	DamageOffset int64  `json:"damage_offset"`
	DamageCause  string `json:"damage_cause,omitempty"`

	SectionsKept int    `json:"sections_kept"`
	LostSections []byte `json:"lost_sections,omitempty"` // known-lost ids (from the manifest)

	// OriginalInstrs is the recorded region length when known (0 for an
	// uncommitted journal, whose final length died with the recording).
	// SalvagedInstrs is the region length of the recovered pinball.
	OriginalInstrs int64 `json:"original_instrs,omitempty"`
	SalvagedInstrs int64 `json:"salvaged_instrs"`

	// Truncated is set when the recovery anchored at a divergence
	// checkpoint; CheckpointStep is that checkpoint's global region step.
	Truncated      bool  `json:"truncated"`
	CheckpointStep int64 `json:"checkpoint_step,omitempty"`
	// Unverified is set when the recovered pinball lost its divergence
	// checkpoints: it replays, but replay cannot be validated windows-wise.
	Unverified bool `json:"unverified,omitempty"`
	// Evicted counts the sealed flight-recorder windows recovered as
	// evictions from an interrupted ring journal: their content was still
	// in the recorder's memory when the recording died, so replay must
	// re-derive every one of them by gap bridging.
	Evicted int `json:"evicted,omitempty"`
}

// Summary renders the report as a short human-readable block.
func (r *SalvageReport) Summary() string {
	if r.Intact {
		return fmt.Sprintf("intact pinball (format version %d, %d bytes): nothing to repair", r.Version, r.BytesTotal)
	}
	s := fmt.Sprintf("kept %d of %d bytes (%d sections)", r.BytesKept, r.BytesTotal, r.SectionsKept)
	if r.DamageOffset >= 0 {
		s += fmt.Sprintf("\nfirst damage at byte offset %d: %s", r.DamageOffset, r.DamageCause)
	} else if r.DamageCause != "" {
		s += "\n" + r.DamageCause
	}
	if len(r.LostSections) > 0 {
		s += fmt.Sprintf("\nlost sections: %v", r.LostSections)
	}
	if r.Truncated {
		s += fmt.Sprintf("\ntruncated to the last intact divergence checkpoint: %d instructions (region step %d)",
			r.SalvagedInstrs, r.CheckpointStep)
	} else {
		s += fmt.Sprintf("\nregion recovered whole: %d instructions", r.SalvagedInstrs)
	}
	if r.Unverified {
		s += "\ndivergence checkpoints were lost: replay of the salvaged pinball is unverified"
	}
	if r.Evicted > 0 {
		s += fmt.Sprintf("\nring journal: %d sealed windows recovered as evictions; replay will re-derive them by gap bridging", r.Evicted)
	}
	return s
}

// Salvage reads the file at path and recovers what it can. On success
// the returned pinball passes Validate and is replayable; the report is
// non-nil even on failure, so tools can show diagnostics either way.
func Salvage(path string) (*Pinball, *SalvageReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, &SalvageReport{Path: path, DamageOffset: -1, DamageCause: err.Error()},
			fmt.Errorf("pinball: %w", err)
	}
	p, rep, err := SalvageBytes(data)
	rep.Path = path
	if err != nil {
		return nil, rep, fmt.Errorf("pinball: salvage %s: %w", path, err)
	}
	return p, rep, nil
}

// SalvageBytes is Salvage over in-memory file bytes.
func SalvageBytes(data []byte) (*Pinball, *SalvageReport, error) {
	rep := &SalvageReport{BytesTotal: int64(len(data)), DamageOffset: -1}

	// A file that loads cleanly needs no repair.
	if p, err := Decode(data); err == nil {
		rep.Intact = true
		rep.Version = data[len(fileMagic)]
		rep.BytesKept = rep.BytesTotal
		rep.OriginalInstrs, rep.SalvagedInstrs = p.RegionInstrs, p.RegionInstrs
		return p, rep, nil
	}

	if len(data) < len(fileMagic)+1 || string(data[:len(fileMagic)]) != fileMagic {
		rep.DamageCause = "no pinball magic"
		return nil, rep, fmt.Errorf("%w: not a pinball file", ErrUnsalvageable)
	}
	rep.Version = data[len(fileMagic)]
	if !readableVersion(rep.Version) {
		rep.DamageCause = fmt.Sprintf("unreadable format version %d", rep.Version)
		return nil, rep, fmt.Errorf("%w: unreadable format version %d", ErrUnsalvageable, rep.Version)
	}
	return salvageFrames(data, rep)
}

// replayCritical names the stream frames replay cannot run without. The
// slice frame is critical only for slice pinballs.
var replayCritical = map[byte]string{
	secSchedule:     "schedule",
	secQuantaChunk:  "schedule",
	secSyscalls:     "syscall results",
	secSyscallChunk: "syscall results",
}

// optionalFrames are the frames whose loss leaves a replayable region:
// without order edges replay still follows the schedule, without
// checkpoints it cannot window-verify, without the commit frame the
// leading meta stands in, and without the ring frame a recording that
// evicted nothing is whole (one that did fails validation).
var optionalFrames = map[byte]bool{
	secOrder: true, secOrderChunk: true,
	secCheckpoints: true, secCheckpointChunk: true,
	secRing: true, secCommit: true,
}

// salvageFrames recovers a version 2 to 4 file from its frame prefix.
func salvageFrames(data []byte, rep *SalvageReport) (*Pinball, *SalvageReport, error) {
	parts, scanErr := readFrames(data, -1)
	if scanErr != nil {
		rep.DamageOffset, rep.DamageCause = parts.end, scanErr.Error()
	} else if !parts.committed {
		rep.DamageCause = "no commit frame: the recording was interrupted or the file was cut short"
	}
	manifest := parts.meta.Sections
	if i := parts.drift(); i >= 0 {
		// The frames disagree with the manifest: a frame was dropped,
		// duplicated or reordered. Only the frames before the first
		// disagreement are trustworthy.
		cause := parts.driftCause(i)
		if i < len(parts.offs) {
			rep.DamageOffset = parts.offs[i]
		}
		parts, _ = readFrames(data, i)
		rep.DamageCause = cause
	}
	rep.BytesKept = parts.end
	rep.SectionsKept = len(parts.ids)
	rep.Committed = parts.committed

	p := parts.p
	switch {
	case !parts.hasMeta:
		return nil, rep, fmt.Errorf("%w: the meta frame did not survive", ErrUnsalvageable)
	case p.State == nil:
		return nil, rep, fmt.Errorf("%w: the initial state frame did not survive", ErrUnsalvageable)
	}
	// The region survives whole when the file is complete, or when the
	// meta in hand is a full one (it carries the manifest) and the
	// manifest proves every lost frame optional.
	var lost []byte
	if len(manifest) > 0 {
		lost = manifest[len(parts.framesBeforeCommit()):]
	}
	whole := parts.committed
	if len(parts.meta.Sections) > 0 {
		whole = true
		for _, id := range lost {
			whole = whole && optionalFrames[id]
		}
	}
	rep.LostSections = lost
	p.applyMeta(parts.meta)
	switch {
	case whole:
		rep.OriginalInstrs, rep.SalvagedInstrs = p.RegionInstrs, p.RegionInstrs
		rep.Unverified = slices.Contains(lost, secCheckpoints) || slices.Contains(lost, secCheckpointChunk)
		if err := p.Validate(); err != nil {
			return nil, rep, fmt.Errorf("%w: salvaged content is inconsistent: %v", ErrUnsalvageable, err)
		}
		return p, rep, nil
	case parts.ringMode:
		// A ring journal defers retained window content to commit time, so
		// an interrupted one has no schedule chunks to truncate — instead
		// every sealed window becomes a verifiable eviction.
		return salvageRing(parts, rep)
	}
	return salvageTruncated(p, parts.meta, lost, rep)
}

// salvageTruncated cuts an interrupted recording at the last divergence
// checkpoint its surviving schedule covers. Chunk ordering inside a
// journal flush (quanta last) guarantees every event at or before that
// step survived too.
func salvageTruncated(p *Pinball, meta metaV1, lost []byte, rep *SalvageReport) (*Pinball, *SalvageReport, error) {
	rep.OriginalInstrs = meta.RegionInstrs // 0 unless a full meta survived
	scheduled := p.TotalQuantumInstrs()
	anchor := int64(-1)
	for _, cp := range p.Checkpoints {
		if cp.Step <= scheduled && cp.Step > anchor {
			anchor = cp.Step
		}
	}
	if anchor <= 0 {
		why := "no intact divergence checkpoint anchors a truncation"
		for _, id := range lost {
			if what, critical := replayCritical[id]; critical {
				why = fmt.Sprintf("the %s frame did not survive, and %s", what, why)
				break
			}
			if id == secSlice && p.Kind == KindSlice {
				why = "the slice pinball's exclusion/injection frame did not survive, and " + why
				break
			}
		}
		return nil, rep, fmt.Errorf("%w: %s (the surviving schedule covers %d instructions)",
			ErrUnsalvageable, why, scheduled)
	}
	p.truncateToStep(anchor)
	rep.Truncated = true
	rep.CheckpointStep = anchor
	rep.SalvagedInstrs = p.RegionInstrs
	if err := p.Validate(); err != nil {
		return nil, rep, fmt.Errorf("%w: salvaged content is inconsistent: %v", ErrUnsalvageable, err)
	}
	return p, rep, nil
}

// salvageRing reconstructs an interrupted ring-mode journal as a fully
// evicted pinball: initial state, recipe, every divergence checkpoint and
// every sealed window's span+hash survive on disk, while all window
// content (still in the recorder's in-memory ring when the recording
// died) is re-derived at replay time by gap bridging and verified against
// the retained hashes.
func salvageRing(parts *journalParts, rep *SalvageReport) (*Pinball, *SalvageReport, error) {
	p := parts.p
	if len(parts.windows) == 0 {
		return nil, rep, fmt.Errorf("%w: ring journal has no sealed window to anchor a recovery", ErrUnsalvageable)
	}
	rep.OriginalInstrs = parts.meta.RegionInstrs // 0 unless the commit frame survived

	var end int64
	evs := make([]Eviction, 0, len(parts.windows))
	for _, w := range parts.windows {
		evs = append(evs, Eviction{ID: w.ID, FromStep: w.FromStep, ToStep: w.ToStep, Hash: w.Hash})
		if w.ToStep > end {
			end = w.ToStep
		}
	}
	// Drop any content frames that did survive (a torn commit can leave a
	// partial content tail): without the eviction manifest there is no
	// proof of which windows they cover, and bridging re-derives them
	// anyway.
	p.Quanta, p.Syscalls, p.OrderEdges = nil, nil, nil
	p.Evictions = evs
	p.RegionInstrs, p.MainInstrs = end, 0

	cps := p.Checkpoints[:0:0]
	for _, cp := range p.Checkpoints {
		if cp.Step <= end {
			cps = append(cps, cp)
		}
	}
	p.Checkpoints = cps
	p.EndReason = "salvaged"
	p.Failure = nil

	rep.Truncated = true
	rep.CheckpointStep = end
	rep.SalvagedInstrs = end
	rep.Evicted = len(evs)
	if err := p.Validate(); err != nil {
		return nil, rep, fmt.Errorf("%w: salvaged ring content is inconsistent: %v", ErrUnsalvageable, err)
	}
	return p, rep, nil
}

// truncateToStep cuts the pinball's region to exactly step instructions:
// the schedule is trimmed (splitting the quantum the boundary lands in),
// region accounting recomputed, and checkpoints/injections past the
// boundary dropped. Trailing syscall results and order edges are
// unreachable by the shortened replay and kept harmlessly. The recorded
// failure sat at the region's (lost) end, so it is cleared.
func (p *Pinball) truncateToStep(step int64) {
	var total int64
	trimmed := p.Quanta[:0:0]
	for _, q := range p.Quanta {
		if total+q.Count >= step {
			if left := step - total; left > 0 {
				q.Count = left
				trimmed = append(trimmed, q)
			}
			total = step
			break
		}
		total += q.Count
		trimmed = append(trimmed, q)
	}
	p.Quanta = trimmed
	p.RegionInstrs = step
	var main int64
	for _, q := range p.Quanta {
		if q.Tid == 0 {
			main += q.Count
		}
	}
	p.MainInstrs = main

	cps := p.Checkpoints[:0:0]
	for _, cp := range p.Checkpoints {
		if cp.Step <= step {
			cps = append(cps, cp)
		}
	}
	p.Checkpoints = cps

	inj := p.Injections[:0:0]
	for _, in := range p.Injections {
		if in.AtStep <= step {
			inj = append(inj, in)
		}
	}
	p.Injections = inj

	p.EndReason = "salvaged"
	p.Failure = nil
}
