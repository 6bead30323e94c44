package pinball

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Record payloads of the version 4 stream chunks (frame ids 8-11). A
// payload is a uvarint record count followed by the records, every field
// a zigzag varint except a checkpoint's Hash, which is 8 fixed
// little-endian bytes:
//
//	quanta (8)       Tid Count
//	syscalls (9)     Tid Num Arg Ret
//	order edges (10) FromTid ΔFromIdx ToTid ΔToIdx Addr
//	checkpoints (11) Tid Seq Idx Step Hash PC ΔRegs[0..NumRegs)
//
// ΔFromIdx and ΔToIdx are differences from the previous edge of the
// chunk; ΔRegs are differences, modulo 2^64 like the machine's own
// arithmetic, from the same thread's previous checkpoint in the chunk.
// Every delta base starts at zero in each chunk, so a chunk decodes on
// its own and a torn journal keeps every chunk before the tear. The
// encoding is a function of the records alone: the same pinball always
// encodes to the same bytes.
//
// The decoders trust nothing: a count the payload is too short to hold
// is rejected before anything is allocated, and a truncated or
// over-long varint, a thread id outside [0, vm.MaxThreads), an index
// delta that overflows and bytes after the last record are all
// ErrCorrupt naming the record and its payload offset.

// Minimum encoded record sizes: one byte per varint field, eight for a
// checkpoint's hash.
const (
	quantumMinLen    = 2
	syscallMinLen    = 4
	edgeMinLen       = 5
	checkpointMinLen = 4 + 8 + 1 + isa.NumRegs
)

func appendQuanta(b []byte, qs []vm.Quantum) []byte {
	b = binary.AppendUvarint(b, uint64(len(qs)))
	for _, q := range qs {
		b = binary.AppendVarint(b, int64(q.Tid))
		b = binary.AppendVarint(b, q.Count)
	}
	return b
}

func appendSyscalls(b []byte, ss []vm.SyscallRecord) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = binary.AppendVarint(b, int64(s.Tid))
		b = binary.AppendVarint(b, s.Num)
		b = binary.AppendVarint(b, s.Arg)
		b = binary.AppendVarint(b, s.Ret)
	}
	return b
}

// appendEdges writes index deltas with wrapping subtraction, so it
// accepts any edge; one whose delta overflows (only possible with a
// negative index, which Validate rejects) fails to decode.
func appendEdges(b []byte, es []vm.OrderEdge) []byte {
	b = binary.AppendUvarint(b, uint64(len(es)))
	var from, to int64
	for _, e := range es {
		b = binary.AppendVarint(b, int64(e.FromTid))
		b = binary.AppendVarint(b, e.FromIdx-from)
		b = binary.AppendVarint(b, int64(e.ToTid))
		b = binary.AppendVarint(b, e.ToIdx-to)
		b = binary.AppendVarint(b, e.Addr)
		from, to = e.FromIdx, e.ToIdx
	}
	return b
}

func appendCheckpoints(b []byte, cps []Checkpoint) []byte {
	b = binary.AppendUvarint(b, uint64(len(cps)))
	var prev [vm.MaxThreads]int32 // 1 + index of the thread's previous checkpoint, 0 for none
	for i := range cps {
		cp := &cps[i]
		b = binary.AppendVarint(b, int64(cp.Tid))
		b = binary.AppendVarint(b, cp.Seq)
		b = binary.AppendVarint(b, cp.Idx)
		b = binary.AppendVarint(b, cp.Step)
		b = binary.LittleEndian.AppendUint64(b, cp.Hash)
		b = binary.AppendVarint(b, cp.PC)
		var base [isa.NumRegs]int64
		if cp.Tid >= 0 && cp.Tid < vm.MaxThreads {
			if j := prev[cp.Tid]; j > 0 {
				base = cps[j-1].Regs
			}
			prev[cp.Tid] = int32(i + 1)
		}
		for k, v := range cp.Regs {
			b = binary.AppendVarint(b, v-base[k])
		}
	}
	return b
}

// recordReader walks one record payload. It keeps a sticky error: after
// the first malformed field the record loop stops.
type recordReader struct {
	b     []byte
	off   int
	rec   int // 1-based number of the record being read, 0 outside records
	start int // payload offset of that record
	err   error
}

// begin starts reading record i (0-based).
func (r *recordReader) begin(i int) {
	r.rec, r.start = i+1, r.off
}

// fail records the first error, located at the current record or, outside
// records, at the current payload offset.
func (r *recordReader) fail(format string, args ...any) {
	if r.err != nil {
		return
	}
	where := fmt.Sprintf("payload byte %d", r.off)
	if r.rec > 0 {
		where = fmt.Sprintf("record #%d at payload byte %d", r.rec, r.start)
	}
	r.err = fmt.Errorf("%w: %s: %s", ErrCorrupt, where, fmt.Sprintf(format, args...))
}

// count reads the record count and rejects one that the rest of the
// payload cannot hold at minLen bytes per record.
func (r *recordReader) count(minLen int) int {
	n, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.fail("unreadable record count")
		return 0
	}
	r.off = k
	if room := uint64(len(r.b)-k) / uint64(minLen); n > room {
		r.fail("%d records claimed, the %d-byte payload holds at most %d", n, len(r.b), room)
		return 0
	}
	return int(n)
}

// fields reads len(dst) zigzag varints into dst. Most fields take one
// or two bytes, so those are decoded in the loop itself.
func (r *recordReader) fields(dst []int64) {
	b, off := r.b, r.off
	for i := range dst {
		var u uint64
		switch {
		case off < len(b) && b[off] < 0x80:
			u = uint64(b[off])
			off++
		case off+1 < len(b) && b[off+1] < 0x80:
			u = uint64(b[off]&0x7f) | uint64(b[off+1])<<7
			off += 2
		default:
			var k int
			u, k = binary.Uvarint(b[off:])
			if k <= 0 {
				r.off = off
				if k == 0 {
					r.fail("varint at byte %d is truncated", off)
				} else {
					r.fail("varint at byte %d overflows 64 bits", off)
				}
				return
			}
			off += k
		}
		dst[i] = int64(u>>1) ^ -int64(u&1)
	}
	r.off = off
}

// tid checks a thread id field.
func (r *recordReader) tid(v int64) int {
	if v < 0 || v >= vm.MaxThreads {
		r.fail("thread id %d outside [0, %d)", v, vm.MaxThreads)
		return 0
	}
	return int(v)
}

// add applies an index delta to prev and rejects a sum that overflows.
func (r *recordReader) add(prev, d int64) int64 {
	v := prev + d
	if (d > 0 && v < prev) || (d < 0 && v > prev) {
		r.fail("index delta %d from %d overflows", d, prev)
	}
	return v
}

func (r *recordReader) fixed64() uint64 {
	if len(r.b)-r.off < 8 {
		r.fail("8-byte field at byte %d is truncated", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// done returns the sticky error, or ErrCorrupt when bytes follow the
// last record.
func (r *recordReader) done() error {
	if r.err == nil && r.off != len(r.b) {
		r.rec = 0
		r.fail("%d trailing bytes after the last record", len(r.b)-r.off)
	}
	return r.err
}

func decodeQuanta(b []byte) ([]vm.Quantum, error) {
	r := recordReader{b: b}
	out := make([]vm.Quantum, r.count(quantumMinLen))
	var f [2]int64
	for i := range out {
		r.begin(i)
		r.fields(f[:])
		out[i] = vm.Quantum{Tid: r.tid(f[0]), Count: f[1]}
		if r.err != nil {
			break
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

func decodeSyscalls(b []byte) ([]vm.SyscallRecord, error) {
	r := recordReader{b: b}
	out := make([]vm.SyscallRecord, r.count(syscallMinLen))
	var f [4]int64
	for i := range out {
		r.begin(i)
		r.fields(f[:])
		out[i] = vm.SyscallRecord{Tid: r.tid(f[0]), Num: f[1], Arg: f[2], Ret: f[3]}
		if r.err != nil {
			break
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

func decodeEdges(b []byte) ([]vm.OrderEdge, error) {
	r := recordReader{b: b}
	out := make([]vm.OrderEdge, r.count(edgeMinLen))
	var f [5]int64
	var from, to int64
	for i := range out {
		r.begin(i)
		r.fields(f[:])
		from, to = r.add(from, f[1]), r.add(to, f[3])
		out[i] = vm.OrderEdge{FromTid: r.tid(f[0]), FromIdx: from, ToTid: r.tid(f[2]), ToIdx: to, Addr: f[4]}
		if r.err != nil {
			break
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}

func decodeCheckpoints(b []byte) ([]Checkpoint, error) {
	r := recordReader{b: b}
	out := make([]Checkpoint, r.count(checkpointMinLen))
	var prev [vm.MaxThreads]int32 // as in appendCheckpoints
	var f [5]int64
	for i := range out {
		r.begin(i)
		cp := &out[i]
		r.fields(f[:4])
		cp.Hash = r.fixed64()
		r.fields(f[4:])
		r.fields(cp.Regs[:])
		cp.Tid = r.tid(f[0])
		if r.err != nil {
			break
		}
		cp.Seq, cp.Idx, cp.Step, cp.PC = f[1], f[2], f[3], f[4]
		if j := prev[cp.Tid]; j > 0 {
			for k, v := range out[j-1].Regs {
				cp.Regs[k] += v
			}
		}
		prev[cp.Tid] = int32(i + 1)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return out, nil
}
