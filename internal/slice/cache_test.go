package slice_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/pinplay"
	"repro/internal/slice"
	"repro/internal/tracer"
)

// TestEngineCacheSingleFlight hammers one pinball's engine from 16
// goroutines: exactly one build must run (single-flight), and every
// caller must get that one engine. Run under -race this also checks the
// cache's locking discipline against concurrent sessions.
func TestEngineCacheSingleFlight(t *testing.T) {
	slice.ResetEngineCache()
	defer slice.ResetEngineCache()

	prog, pb, tr := fuzzProgram(t, 9)
	key := slice.KeyOf(prog, pb)
	opts := slice.DefaultOptions()
	popts := slice.ParallelOptions{Workers: 2, WindowSize: pinplay.WindowSize(pb)}

	const goroutines = 16
	engines := make([]*slice.ParallelSlicer, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			eng, err := slice.CachedParallel(key, prog, have(tr), opts, popts)
			if err != nil {
				t.Error(err)
				return
			}
			engines[i] = eng
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 1; i < goroutines; i++ {
		if engines[i] != engines[0] {
			t.Fatalf("goroutine %d got a different engine instance", i)
		}
	}
	st := slice.GetEngineCacheStats()
	if st.Misses != 1 {
		t.Errorf("%d builds ran, want 1 (single-flight); stats %+v", st.Misses, st)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestEngineCacheWaiterLoadsAfterSharedFailure: a caller that waits on
// another caller's load does not take that load's failure as its own —
// the failure may come from the other caller's replay limits. It loads
// again with its own loader and gets the engine.
func TestEngineCacheWaiterLoadsAfterSharedFailure(t *testing.T) {
	slice.ResetEngineCache()
	defer slice.ResetEngineCache()

	prog, pb, tr := fuzzProgram(t, 9)
	key := slice.KeyOf(prog, pb)
	opts := slice.DefaultOptions()
	popts := slice.ParallelOptions{Workers: 2, WindowSize: pinplay.WindowSize(pb)}

	errBudget := errors.New("first caller's budget ran out")
	started, release := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := slice.CachedParallel(key, prog, func() (*tracer.Trace, error) {
			close(started)
			<-release
			return nil, errBudget
		}, opts, popts)
		first <- err
	}()
	<-started
	type result struct {
		eng *slice.ParallelSlicer
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		eng, err := slice.CachedParallel(key, prog, have(tr), opts, popts)
		waiter <- result{eng, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter join the first load
	close(release)

	if err := <-first; !errors.Is(err, errBudget) {
		t.Fatalf("first caller: %v, want its own loader's failure", err)
	}
	got := <-waiter
	if got.err != nil || got.eng == nil || got.eng.Trace != tr {
		t.Fatalf("waiter got engine %p, err %v; want an engine over its own trace", got.eng, got.err)
	}
}

// TestEngineCacheEviction bounds the cache at two engines and loads
// four distinct (options-fingerprint) engines of one pinball: residency
// must never exceed the cap, the LRU engines must be evicted, and an
// evicted engine must be rebuilt on re-request.
func TestEngineCacheEviction(t *testing.T) {
	slice.ResetEngineCache()
	slice.SetEngineCacheCap(2)
	defer func() {
		slice.SetEngineCacheCap(slice.DefaultEngineCacheCap)
		slice.ResetEngineCache()
	}()

	prog, pb, tr := fuzzProgram(t, 10)
	key := slice.KeyOf(prog, pb)
	popts := slice.ParallelOptions{Workers: 2, WindowSize: pinplay.WindowSize(pb)}
	build := func(maxSave int) *slice.ParallelSlicer {
		opts := slice.DefaultOptions()
		opts.MaxSave = maxSave // distinct options fingerprint per maxSave
		eng, err := slice.CachedParallel(key, prog, have(tr), opts, popts)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	first := build(3)
	for _, ms := range []int{4, 5, 6} {
		build(ms)
	}
	st := slice.GetEngineCacheStats()
	if st.Entries > 2 {
		t.Errorf("cache holds %d engines, cap is 2", st.Entries)
	}
	if st.Evictions < 2 {
		t.Errorf("evictions = %d, want >= 2", st.Evictions)
	}

	// The first engine was evicted; re-requesting it rebuilds.
	if again := build(3); again == first {
		t.Error("evicted engine instance returned from cache")
	}
	if st := slice.GetEngineCacheStats(); st.Misses != 5 {
		t.Errorf("misses = %d, want 5 (4 distinct + 1 rebuild)", st.Misses)
	}
}

// have is the trace loader for a caller that already holds the trace.
func have(tr *tracer.Trace) func() (*tracer.Trace, error) {
	return func() (*tracer.Trace, error) { return tr, nil }
}
