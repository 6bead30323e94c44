package sessiond

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/lru"
	"repro/internal/pinball"
	"repro/internal/store"
	"repro/internal/supervisor"
)

// Locator names the fleet peers that may hold a digest, ranked
// best-first (rendezvous owner, then successors) and excluding the
// asking daemon itself. A nil Locator (or an empty answer) means the
// daemon is on its own: healing stops at salvage.
type Locator interface {
	Locate(digest string) []string
}

// StoreRetry tunes the peer re-fetch ladder: how many peers a heal may
// try, the decorrelated-jitter backoff between sequential attempts, and
// when to hedge the first fetch with the rendezvous successor.
type StoreRetry struct {
	// Attempts bounds how many peer dials one heal may spend (default 3).
	Attempts int
	// Base/Max shape the decorrelated-jitter backoff between sequential
	// retry dials (defaults 25ms / 500ms).
	Base time.Duration
	Max  time.Duration
	// HedgeAfter launches a second fetch at the next-ranked peer when the
	// best one has not answered yet (default 400ms). First answer wins;
	// the loser's connection is closed.
	HedgeAfter time.Duration
	// DialTimeout / FetchTimeout bound one peer's connect and transfer
	// (defaults 2s / 30s).
	DialTimeout  time.Duration
	FetchTimeout time.Duration
}

func (r StoreRetry) withDefaults() StoreRetry {
	if r.Attempts <= 0 {
		r.Attempts = 3
	}
	if r.Base <= 0 {
		r.Base = 25 * time.Millisecond
	}
	if r.Max <= 0 {
		r.Max = 500 * time.Millisecond
	}
	if r.HedgeAfter <= 0 {
		r.HedgeAfter = 400 * time.Millisecond
	}
	if r.DialTimeout <= 0 {
		r.DialTimeout = 2 * time.Second
	}
	if r.FetchTimeout <= 0 {
		r.FetchTimeout = 30 * time.Second
	}
	return r
}

// errStoreUnavailable types store failures that are about availability,
// not content: the digest exists nowhere reachable, or no store is
// configured. It maps to CodeStoreUnavailable and does NOT open the
// digest's circuit (the pinball content is not at fault).
var errStoreUnavailable = errors.New("store unavailable")

// storeErrorCode maps a store-layer failure onto the wire protocol.
// Availability problems are CodeStoreUnavailable; content damage —
// corrupt or missing objects, digest mismatches, manifest damage, or
// validated bytes that do not decode — is CodeCorrupt, which is
// pinballAttributable and opens the digest's circuit exactly like a
// corrupt path-named pinball would.
func storeErrorCode(err error) string {
	switch {
	case errors.Is(err, errStoreUnavailable), errors.Is(err, store.ErrNotFound):
		return CodeStoreUnavailable
	case errors.Is(err, store.ErrObjectCorrupt),
		errors.Is(err, store.ErrObjectMissing),
		errors.Is(err, store.ErrDigestMismatch),
		errors.Is(err, store.ErrManifestCorrupt),
		errors.Is(err, store.ErrManifestTorn):
		return CodeCorrupt
	}
	return errorCode(err)
}

// resolvedPinball is one digest's decoded pinball, the resolver cache's
// value type. The pinball is immutable once cached and shared by every
// session on the digest. sticky marks content-level degradation (a
// salvaged pinball) that every user must surface; healed marks the
// one-time repair work whose annotation belongs only to the requests
// that waited for it.
type resolvedPinball struct {
	pb     *pinball.Pinball
	sticky string // CodeSalvaged when pb was salvaged, else ""
	healed bool   // the load repaired or re-fetched before decoding
}

// undecodableError is a validated store read whose bytes do not decode:
// the stored content itself is broken, so no peer can replace it. It
// keeps the bytes for a request that asked for salvage.
type undecodableError struct {
	data []byte
	err  error
}

func (e *undecodableError) Error() string { return e.err.Error() }
func (e *undecodableError) Unwrap() error { return e.err }

// resolverCacheCap bounds the digest → decoded pinball cache.
const resolverCacheCap = 64

// storeResolver turns a content digest into a decoded pinball a session
// can open, healing as needed. The ladder, in order:
//
//  1. read the validated local copy and decode it;
//  2. on damage or absence: re-fetch the full file by digest from fleet
//     peers (bounded attempts, decorrelated-jitter backoff, hedged
//     fallback to the rendezvous successor), heal the local store with
//     the validated bytes, and decode them — annotated CodeHealed;
//  3. on unhealable damage: salvage the surviving local bytes
//     (quarantined copies included) into a degraded-but-replayable
//     pinball, kept in memory only — annotated CodeSalvaged;
//  4. fail typed: CodeStoreUnavailable if nobody reachable holds the
//     digest, CodeCorrupt if the content itself is beyond recovery.
//
// Resolutions are cached in a single-flight LRU keyed by digest, so
// concurrent sessions on one digest share one decoded pinball (and one
// heal), exactly like the engine cache shares hot slicers.
type storeResolver struct {
	st      *store.Store
	locator Locator
	retry   StoreRetry
	logf    func(format string, args ...any)
	// dial is swappable for tests; defaults to DialTimeout.
	dial func(addr string, d time.Duration) (*Client, error)
	// rnd is the backoff jitter source (nil = math/rand).
	rnd   func() float64
	cache *lru.Cache[string, resolvedPinball]
}

func newStoreResolver(st *store.Store, loc Locator, retry StoreRetry, logf func(string, ...any)) *storeResolver {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &storeResolver{
		st:      st,
		locator: loc,
		retry:   retry.withDefaults(),
		logf:    logf,
		dial:    DialTimeout,
		cache:   lru.New[string, resolvedPinball](resolverCacheCap),
	}
}

// resolve returns digest's decoded pinball leased for the caller's
// session, the degradation annotation the session's answer must carry
// ("" for a clean cache hit), and a release func that ends the GC
// lease — the caller must run it when the session finishes. With
// salvage set, stored bytes that validate but do not decode are
// salvaged for this request (annotated CodeSalvaged) instead of failing.
func (r *storeResolver) resolve(ctx context.Context, digest string, salvage bool) (*pinball.Pinball, string, func(), error) {
	if !store.ValidDigest(digest) {
		return nil, "", nil, badRequest("bad digest %q", digest)
	}
	for attempt := 0; ; attempt++ {
		v, fresh, err := r.lookup(ctx, digest)
		var ue *undecodableError
		if salvage && errors.As(err, &ue) {
			if pb, _, serr := pinball.SalvageBytes(ue.data); serr == nil {
				v, err = resolvedPinball{pb: pb, sticky: CodeSalvaged}, nil
			}
		}
		if err != nil {
			return nil, "", nil, err
		}
		release, err := r.st.Acquire(digest)
		if errors.Is(err, store.ErrNotFound) {
			// GC collected the entry after it was resolved: drop the
			// cached pinball and run the ladder once more, so the lease
			// protects an entry that exists.
			r.cache.Remove(digest)
			if attempt == 0 {
				continue
			}
		}
		if err != nil {
			return nil, "", nil, err
		}
		ann := v.sticky
		if fresh && v.healed && ann == "" {
			ann = CodeHealed
		}
		return v.pb, ann, release, nil
	}
}

// lookup returns the cached resolution for digest or builds one,
// reporting whether this caller participated in a fresh load (fresh
// loads carry the healed annotation; pure cache hits do not).
func (r *storeResolver) lookup(ctx context.Context, digest string) (resolvedPinball, bool, error) {
	if v, ok := r.cache.Get(digest); ok {
		return v, false, nil
	}
	v, err := r.cache.GetOrLoadCtx(ctx, digest, func(ctx context.Context) (resolvedPinball, error) {
		return r.load(ctx, digest)
	})
	return v, true, err
}

// load runs the heal ladder for one digest (single-flight under the
// resolver cache).
func (r *storeResolver) load(ctx context.Context, digest string) (resolvedPinball, error) {
	data, err := r.st.Get(digest)
	if err == nil {
		return decodeResolved(digest, data, false)
	}

	if errors.Is(err, store.ErrNotFound) {
		// This daemon never held the digest: plain re-fetch from whoever
		// the fleet ranks for it, then store it locally.
		data, ferr := r.fetchFromPeers(ctx, digest)
		if ferr != nil {
			return resolvedPinball{}, fmt.Errorf("%w: digest %s held by no reachable peer: %v", errStoreUnavailable, digest, ferr)
		}
		if _, perr := r.st.Put(data, store.PutMeta{Kind: "refetch"}); perr != nil {
			return resolvedPinball{}, fmt.Errorf("store re-fetched %s: %w", digest, perr)
		}
		return decodeResolved(digest, data, true)
	}

	// The local copy is damaged (corrupt or missing chunk, assembly
	// mismatch); the read already quarantined the bad object. Rung 2:
	// replace the whole file from a peer replica.
	r.logf("sessiond: store copy of %s damaged (%v); healing from peers", digest, err)
	if data, ferr := r.fetchFromPeers(ctx, digest); ferr == nil {
		herr := r.st.Heal(digest, data)
		if herr == nil {
			return decodeResolved(digest, data, true)
		}
		r.logf("sessiond: heal of %s rejected: %v", digest, herr)
	}

	// Rung 3: no peer could replace the bytes. Salvage whatever survives
	// locally (quarantined copies included) into a replayable pinball.
	if dmg, ok, _ := r.st.GetDamaged(digest); ok {
		if pb, _, serr := pinball.SalvageBytes(dmg); serr == nil {
			r.logf("sessiond: %s unhealable, serving a salvaged pinball", digest)
			return resolvedPinball{pb: pb, sticky: CodeSalvaged, healed: true}, nil
		}
	}

	// Rung 4: typed failure — the original corruption error, which the
	// server maps to CodeCorrupt and counts against the digest's circuit.
	return resolvedPinball{}, err
}

// decodeResolved decodes digest's validated store bytes into a cache
// value.
func decodeResolved(digest string, data []byte, healed bool) (resolvedPinball, error) {
	pb, err := pinball.Decode(data)
	if err != nil {
		return resolvedPinball{}, &undecodableError{data: data, err: fmt.Errorf("pinball: decode stored %s: %w", digest, err)}
	}
	return resolvedPinball{pb: pb, healed: healed}, nil
}

// fetchFromPeers downloads digest's validated bytes from the fleet.
// The first-ranked peer is dialed immediately; if it has not answered
// within HedgeAfter, the next-ranked peer (the rendezvous successor —
// where the replicated put landed) is raced against it. Failures move
// down the ranking with decorrelated-jitter backoff, bounded by
// Attempts total dials. The first validated answer wins; losers'
// connections are closed so their transfers stop.
func (r *storeResolver) fetchFromPeers(ctx context.Context, digest string) ([]byte, error) {
	var addrs []string
	if r.locator != nil {
		addrs = r.locator.Locate(digest)
	}
	if len(addrs) == 0 {
		return nil, errors.New("no fleet peer to fetch from")
	}
	if len(addrs) > r.retry.Attempts {
		addrs = addrs[:r.retry.Attempts]
	}

	type outcome struct {
		data []byte
		addr string
		err  error
	}
	results := make(chan outcome, len(addrs))
	var mu sync.Mutex
	var open []*Client
	aborted := false
	launch := func(addr string) {
		go func() {
			c, err := r.dial(addr, r.retry.DialTimeout)
			if err != nil {
				results <- outcome{nil, addr, err}
				return
			}
			mu.Lock()
			if aborted {
				mu.Unlock()
				c.Close()
				results <- outcome{nil, addr, errors.New("fetch aborted: another peer answered first")}
				return
			}
			open = append(open, c)
			mu.Unlock()
			defer c.Close()
			c.SetDeadline(time.Now().Add(r.retry.FetchTimeout))
			resp, err := c.Do(&Request{Op: OpStoreFetch, Digest: digest, StoreNoHeal: true, Proto: ProtoCurrent})
			if err != nil {
				results <- outcome{nil, addr, err}
				return
			}
			if !resp.OK {
				results <- outcome{nil, addr, fmt.Errorf("peer %s: %s: %s", addr, resp.Code, resp.Error)}
				return
			}
			var fr StoreFetchResult
			if err := json.Unmarshal(resp.Result, &fr); err != nil {
				results <- outcome{nil, addr, fmt.Errorf("peer %s: malformed fetch result: %v", addr, err)}
				return
			}
			// Validate before trusting: a peer's answer must hash to the
			// digest we asked for, or it is treated as one more failure.
			if got := store.Digest(fr.Blob); got != digest {
				results <- outcome{nil, addr, fmt.Errorf("peer %s returned bytes hashing to %s, want %s", addr, got, digest)}
				return
			}
			results <- outcome{fr.Blob, addr, nil}
		}()
	}
	abort := func() {
		mu.Lock()
		aborted = true
		cs := open
		open = nil
		mu.Unlock()
		for _, c := range cs {
			c.Close()
		}
	}

	launched := 1
	pending := 1
	launch(addrs[0])
	hedge := time.NewTimer(r.retry.HedgeAfter)
	defer hedge.Stop()
	var backoff time.Duration
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			abort()
			return nil, ctx.Err()
		case <-hedge.C:
			if launched < len(addrs) {
				r.logf("sessiond: hedging fetch of %s to %s", digest, addrs[launched])
				launch(addrs[launched])
				launched++
				pending++
			}
		case out := <-results:
			pending--
			if out.err == nil {
				abort()
				return out.data, nil
			}
			lastErr = out.err
			if launched < len(addrs) {
				backoff = supervisor.DecorrelatedJitter(backoff, r.retry.Base, r.retry.Max, r.rnd)
				select {
				case <-time.After(backoff):
				case <-ctx.Done():
					abort()
					return nil, ctx.Err()
				}
				launch(addrs[launched])
				launched++
				pending++
			} else if pending == 0 {
				return nil, fmt.Errorf("all %d peers failed, last: %w", launched, lastErr)
			}
		}
	}
}

// storeOp answers the four store ops against the daemon's local store.
// store_fetch from a peer healing itself (StoreNoHeal) serves local
// validated bytes only — peer-assisted healing happens exclusively in
// the session resolve path, so two daemons with damaged copies cannot
// recurse into each other forever.
func (s *Server) storeOp(req *Request) Response {
	if req.Proto < ProtoV2 {
		return Response{ID: req.ID, OK: false, Code: CodeBadRequest,
			Error: fmt.Sprintf("sessiond: bad request: store ops require proto >= %d", ProtoV2)}
	}
	if s.resolver == nil {
		return Response{ID: req.ID, OK: false, Code: CodeStoreUnavailable,
			Error: "no store configured on this daemon (start with -store)"}
	}
	st := s.resolver.st
	switch req.Op {
	case OpStorePut:
		if len(req.Blob) == 0 {
			return Response{ID: req.ID, OK: false, Code: CodeBadRequest, Error: "sessiond: bad request: store_put needs blob"}
		}
		res, err := st.Put(req.Blob, store.PutMeta{Program: req.StoreProgram, Kind: req.StoreKind})
		if err != nil {
			return s.storeFailure(req, err)
		}
		return Response{ID: req.ID, OK: true, Result: encode(StorePutResult{
			Digest: res.Digest, Size: res.Size, Chunks: res.Chunks,
			NewChunks: res.NewChunks, Existed: res.Existed,
		})}
	case OpStoreFetch:
		digest, err := s.resolveDigestArg(req.Digest)
		if err != nil {
			return s.storeFailure(req, err)
		}
		data, err := st.Get(digest)
		healed := false
		if err != nil && !req.StoreNoHeal && !errors.Is(err, store.ErrNotFound) {
			// Our copy is damaged: heal from peers before serving, so a
			// client fetch repairs the replica as a side effect.
			if hdata, herr := s.resolver.fetchFromPeers(s.hardCtx, digest); herr == nil {
				if st.Heal(digest, hdata) == nil {
					if d2, gerr := st.Get(digest); gerr == nil {
						data, err, healed = d2, nil, true
					}
				}
			}
		}
		if err != nil {
			return s.storeFailure(req, err)
		}
		resp := Response{ID: req.ID, OK: true, Result: encode(StoreFetchResult{
			Digest: digest, Size: int64(len(data)), Blob: data, Healed: healed,
		})}
		if healed {
			resp.Code = CodeHealed
		}
		return resp
	case OpStoreStat:
		digest, err := s.resolveDigestArg(req.Digest)
		if err != nil {
			return s.storeFailure(req, err)
		}
		info, err := st.Stat(digest)
		if err != nil {
			return s.storeFailure(req, err)
		}
		return Response{ID: req.ID, OK: true, Result: encode(StoreStatResult{
			Digest: info.Digest, Size: info.Size, Chunks: info.Chunks,
			Program: info.Program, Kind: info.Kind,
			AddedUnix: info.AddedUnix, TouchUnix: info.TouchUnix,
			Pinned: info.Pinned, Leased: info.Leased,
		})}
	case OpStoreLocate:
		// Worker-side answer: does the local store hold a live entry?
		// (The coordinator intercepts locate and answers with its
		// fleet-wide ranking instead.)
		if !store.ValidDigest(req.Digest) {
			return s.storeFailure(req, badRequest("bad digest %q", req.Digest))
		}
		_, err := st.Stat(req.Digest)
		return Response{ID: req.ID, OK: true, Result: encode(StoreLocateResult{
			Digest: req.Digest, Holds: err == nil,
		})}
	}
	return Response{ID: req.ID, OK: false, Code: CodeBadRequest, Error: "sessiond: bad request: unknown store op"}
}

// resolveDigestArg accepts a full digest or a unique prefix (local
// store ops only — the convenience the CLI leans on).
func (s *Server) resolveDigestArg(arg string) (string, error) {
	if store.ValidDigest(arg) {
		return arg, nil
	}
	if arg == "" {
		return "", badRequest("need digest")
	}
	return s.resolver.st.Resolve(arg)
}

// storeFailure types a store-layer error into a response.
func (s *Server) storeFailure(req *Request, err error) Response {
	return Response{ID: req.ID, OK: false, Code: storeErrorCode(err), Error: err.Error()}
}
