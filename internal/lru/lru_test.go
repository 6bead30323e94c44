package lru

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetPutEvictsLRU(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	if _, ok := c.Get(1); !ok { // 1 is now most recently used
		t.Fatal("1 missing")
	}
	c.Put(3, "c") // evicts 2, the LRU entry
	if _, ok := c.Get(2); ok {
		t.Fatal("2 survived eviction")
	}
	for _, k := range []int{1, 3} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%d evicted, want resident", k)
		}
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "a")
	c.Put(2, "b")
	c.Put(1, "a2") // refresh, not insert: no eviction
	c.Put(3, "c")  // evicts 2
	if v, ok := c.Get(1); !ok || v != "a2" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("2 survived eviction")
	}
}

func TestGetOrLoadSingleFlight(t *testing.T) {
	c := New[string, int](4)
	var loads atomic.Int64
	gate := make(chan struct{})
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]int, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetOrLoad("k", func() (int, error) {
				loads.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(gate)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("load ran %d times, want 1 (single-flight)", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("goroutine %d got %d", i, v)
		}
	}
}

func TestGetOrLoadErrorNotCached(t *testing.T) {
	c := New[string, int](4)
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 2; i++ {
		if _, err := c.GetOrLoad("k", func() (int, error) { calls++; return 0, boom }); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 2 {
		t.Fatalf("failed load cached: %d calls, want 2", calls)
	}
	if c.Len() != 0 {
		t.Fatalf("error entry resident: len=%d", c.Len())
	}
}

func TestSetCapShrinksImmediately(t *testing.T) {
	c := New[int, int](8)
	var evicted []int
	c.OnEvict(func(k, _ int) { evicted = append(evicted, k) })
	for i := 0; i < 8; i++ {
		c.Put(i, i)
	}
	c.SetCap(3)
	if c.Len() != 3 || c.Cap() != 3 {
		t.Fatalf("len=%d cap=%d", c.Len(), c.Cap())
	}
	// The three most recently inserted entries survive.
	for _, k := range []int{5, 6, 7} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%d evicted, want resident", k)
		}
	}
	if len(evicted) != 5 {
		t.Fatalf("evicted %v, want 5 victims", evicted)
	}
}

func TestReset(t *testing.T) {
	c := New[int, int](4)
	c.Put(1, 1)
	c.Get(1)
	c.Get(2)
	c.Reset()
	if st := c.Stats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats after reset: %+v", st)
	}
}

// TestConcurrentMixedOps hammers every operation from many goroutines;
// run under -race this checks the locking discipline, and afterwards the
// cache must still respect its capacity.
func TestConcurrentMixedOps(t *testing.T) {
	c := New[int, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 24
				switch i % 4 {
				case 0:
					c.Put(k, i)
				case 1:
					c.Get(k)
				case 2:
					c.GetOrLoad(k, func() (int, error) { return i, nil })
				case 3:
					if i%40 == 3 {
						c.SetCap(4 + i%8)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > c.Cap() {
		t.Fatalf("len %d exceeds cap %d", c.Len(), c.Cap())
	}
}

func Example() {
	c := New[string, string](2)
	v, _ := c.GetOrLoad("greeting", func() (string, error) { return "hello", nil })
	fmt.Println(v)
	// Output: hello
}

// TestEvictionRacingInflightLoad pins the daemon's hot-engine hazard:
// a slow single-flight load in progress while eviction churn pushes
// entries through the cache. The loader must run exactly once no
// matter how many waiters pile on, every waiter must get its value,
// and accounting must balance — every value that ever entered the
// cache is either still resident or was reported to OnEvict exactly
// once. A double-load would double-build an engine; a leak would pin
// one forever; a double-evict would tear one down under a reader.
func TestEvictionRacingInflightLoad(t *testing.T) {
	const waiters = 10
	c := New[int, *int](1) // capacity 1: every insert evicts something

	var evictMu sync.Mutex
	evicted := make(map[*int]int)
	c.OnEvict(func(k int, v *int) {
		evictMu.Lock()
		evicted[v]++
		evictMu.Unlock()
	})

	var loads atomic.Int64
	gate := make(chan struct{})
	slowVal := new(int)
	slowLoad := func() (*int, error) {
		loads.Add(1)
		<-gate // held open until the churn below has run
		return slowVal, nil
	}

	var wg sync.WaitGroup
	results := make([]*int, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetOrLoad(0, slowLoad)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}

	// While the load is in flight, churn the cache through many
	// insert+evict cycles on other keys.
	churned := make([]*int, 64)
	for i := range churned {
		churned[i] = new(int)
		c.Put(i+1, churned[i])
	}
	close(gate)
	wg.Wait()

	if n := loads.Load(); n != 1 {
		t.Fatalf("slow key loaded %d times, want 1 (single-flight broken by eviction churn)", n)
	}
	for i, v := range results {
		if v != slowVal {
			t.Fatalf("waiter %d got a different value: eviction churn split the flight", i)
		}
	}

	// Leak/double-free accounting. The churn finished before the gate
	// opened, so the slow load's insert evicted the last churned value:
	// every churned value must have been evicted exactly once, and the
	// sole resident must be the slow value.
	evictMu.Lock()
	defer evictMu.Unlock()
	for i, v := range churned {
		if evicted[v] != 1 {
			t.Fatalf("churned value %d evicted %d times, want 1 (0 = leaked, >1 = double-evicted)", i, evicted[v])
		}
	}
	if evicted[slowVal] != 0 {
		t.Fatalf("slow value evicted %d times while still the sole resident", evicted[slowVal])
	}
	if got, ok := c.Get(0); !ok || got != slowVal {
		t.Fatal("slow value not resident after its load completed")
	}
	if c.Len() != 1 {
		t.Fatalf("len %d with capacity 1", c.Len())
	}
}

// TestEvictedWhileLoadingReloads pins the reload contract: once a key's
// entry is evicted, a later GetOrLoad builds it again — eviction during
// an unrelated key's in-flight load must not resurrect stale flights.
func TestEvictedWhileLoadingReloads(t *testing.T) {
	c := New[int, int](1)
	var loads atomic.Int64
	load := func() (int, error) { loads.Add(1); return 7, nil }

	if v, _ := c.GetOrLoad(0, load); v != 7 {
		t.Fatal("first load")
	}
	c.Put(1, 1) // evicts key 0
	if _, ok := c.Get(0); ok {
		t.Fatal("key 0 survived eviction")
	}
	if v, _ := c.GetOrLoad(0, load); v != 7 {
		t.Fatal("reload")
	}
	if loads.Load() != 2 {
		t.Fatalf("loads = %d, want 2 (evicted key must reload)", loads.Load())
	}
}

// TestEvictionRacesStoreFetch models the sessiond resolver cache under a
// slicing storm: a tiny cache, many concurrent GetOrLoadCtx fetches of
// distinct digests (each a slow store read and decode), eviction churn from
// Puts, and Remove invalidations racing it all. The contract under
// -race: every caller gets exactly its own key's value, and the cache
// never exceeds capacity once the dust settles.
func TestEvictionRacesStoreFetch(t *testing.T) {
	const keys = 24
	c := New[int, string](2)
	var wg sync.WaitGroup
	ctx := context.Background()
	errs := make([]error, keys*3)
	for round := 0; round < 3; round++ {
		for k := 0; k < keys; k++ {
			wg.Add(1)
			go func(round, k int) {
				defer wg.Done()
				v, err := c.GetOrLoadCtx(ctx, k, func(context.Context) (string, error) {
					runtime.Gosched() // widen the in-flight window
					return fmt.Sprintf("digest-%d", k), nil
				})
				if err != nil {
					errs[round*keys+k] = err
					return
				}
				if want := fmt.Sprintf("digest-%d", k); v != want {
					errs[round*keys+k] = fmt.Errorf("got %q, want %q", v, want)
				}
			}(round, k)
		}
		// Concurrent invalidation: a GC collecting resolved entries.
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			for k := 0; k < keys; k += 3 {
				c.Remove(k)
			}
			c.Put(1000+round, "churn")
		}(round)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
	}
	if c.Len() > c.Cap() {
		t.Fatalf("len %d exceeds capacity %d", c.Len(), c.Cap())
	}
}

// TestHedgedWaiterCancelPrimaryWins pins the hedged-fetch contract on
// GetOrLoadCtx: a waiter sharing another goroutine's in-flight load
// abandons its wait the moment its context ends (its own hedged fetch
// already produced the answer), without killing the shared load — the
// builder completes, the value caches, and nothing loads twice.
func TestHedgedWaiterCancelPrimaryWins(t *testing.T) {
	c := New[string, int](4)
	var loads atomic.Int64
	gate := make(chan struct{})
	builderIn := make(chan struct{})

	// Builder: starts the slow "peer fetch" flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := c.GetOrLoadCtx(context.Background(), "digest", func(context.Context) (int, error) {
			loads.Add(1)
			close(builderIn)
			<-gate
			return 42, nil
		})
		if err != nil || v != 42 {
			t.Errorf("builder: %d, %v", v, err)
		}
	}()
	<-builderIn

	// Hedged waiter: joins the flight, then its primary wins elsewhere
	// and it cancels. It must return promptly with ctx.Err() while the
	// load is still blocked on gate.
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := c.GetOrLoadCtx(ctx, "digest", func(context.Context) (int, error) {
			t.Error("waiter started a second load for an in-flight key")
			return 0, nil
		})
		waiterDone <- err
	}()
	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled waiter error = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked on the shared flight")
	}

	// The abandoned flight still completes and caches for everyone else.
	close(gate)
	<-done
	if v, ok := c.Get("digest"); !ok || v != 42 {
		t.Fatalf("value not cached after waiter abandoned: %d, %v", v, ok)
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("loads = %d, want 1 (cancellation must not respawn the load)", n)
	}
}
