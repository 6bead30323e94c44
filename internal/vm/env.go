package vm

import (
	"maps"

	"repro/internal/isa"
)

// NativeEnv supplies syscall results during a "native" (original,
// un-replayed) execution: program input from a slice, pseudo-random words
// from a seeded generator, and a logical clock. From the program's point
// of view these are nondeterministic inputs, so the logger captures every
// result into the pinball.
type NativeEnv struct {
	Input []int64

	inputPos  int
	randState uint64
	clock     int64
}

// NewNativeEnv returns an environment with the given program input and
// random seed.
func NewNativeEnv(input []int64, seed int64) *NativeEnv {
	return &NativeEnv{
		Input:     input,
		randState: uint64(seed)*6364136223846793005 + 1442695040888963407,
	}
}

// EnvState is a resumable snapshot of a NativeEnv: the input cursor, the
// random-generator state and the logical clock. The flight recorder
// captures it at region entry so gap bridging can re-run the region with
// the environment answering exactly as it originally did.
type EnvState struct {
	InputPos  int
	RandState uint64
	Clock     int64
}

// State captures the environment's resumable state.
func (e *NativeEnv) State() EnvState {
	return EnvState{InputPos: e.inputPos, RandState: e.randState, Clock: e.clock}
}

// ResumeNativeEnv reconstructs an environment mid-stream from a captured
// state: input is the full original program input (the cursor in st picks
// up where the capture left off).
func ResumeNativeEnv(input []int64, st EnvState) *NativeEnv {
	return &NativeEnv{Input: input, inputPos: st.InputPos, randState: st.RandState, clock: st.Clock}
}

// Syscall implements SyscallSource.
func (e *NativeEnv) Syscall(tid int, num, arg int64) int64 {
	switch num {
	case isa.SysRead:
		if e.inputPos >= len(e.Input) {
			return -1 // EOF
		}
		v := e.Input[e.inputPos]
		e.inputPos++
		return v
	case isa.SysTime:
		e.clock++
		return e.clock
	case isa.SysRand:
		x := e.randState
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		e.randState = x
		return int64(x >> 1)
	}
	return 0
}

// ReplayEnv replays logged syscall results. Results are consumed in
// per-thread FIFO order, which is exactly the order they were produced in
// (a thread's syscalls are totally ordered by its own program order).
type ReplayEnv struct {
	perThread map[int][]int64
}

// NewReplayEnv builds a replay environment from a syscall log.
func NewReplayEnv(log []SyscallRecord) *ReplayEnv {
	e := &ReplayEnv{perThread: make(map[int][]int64)}
	for _, r := range log {
		switch r.Num {
		case isa.SysRead, isa.SysTime, isa.SysRand:
			e.perThread[r.Tid] = append(e.perThread[r.Tid], r.Ret)
		}
	}
	return e
}

// Clone returns an environment at the same log position; consuming
// results from either leaves the other untouched. Replay cursors keep a
// clone per saved position.
func (e *ReplayEnv) Clone() *ReplayEnv {
	return &ReplayEnv{perThread: maps.Clone(e.perThread)}
}

// Syscall implements SyscallSource.
func (e *ReplayEnv) Syscall(tid int, num, arg int64) int64 {
	q := e.perThread[tid]
	if len(q) == 0 {
		return 0 // replay ran past the log; benign for post-region steps
	}
	v := q[0]
	e.perThread[tid] = q[1:]
	return v
}
