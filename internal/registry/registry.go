// Package registry turns the single-model serving layer into a fleet: it
// indexes many checkpoint artifacts by name@version (directory scan or
// explicit add, metadata from the cheap checkpoint.Peek header), lazily
// starts one serve.Server per model under an LRU bound, and hands out
// refcounted acquire handles so a checkpoint swap is zero-downtime —
// in-flight batch windows finish on the old model while new requests route
// to the new one, and a retired server is drained, never killed. On top of
// the registry sits the versioned v1 HTTP API (GET /v1/models,
// /v1/models/{name}/predict|stats|swap, the /v1/ab A/B splitter) — the only
// HTTP surface of a served model — so the paper's baseline-vs-AdaFGL
// comparison runs live behind one port.
package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// DefaultMaxLoaded is the LRU bound on concurrently started servers used
// when Options.MaxLoaded is 0.
const DefaultMaxLoaded = 4

// ErrNotFound marks lookups of unknown models or versions; the HTTP layer
// maps it to 404. Test with errors.Is.
var ErrNotFound = errors.New("model not found")

// ErrInUse marks mutations rejected because a model is acquired or active;
// the HTTP layer maps it to 409. Test with errors.Is.
var ErrInUse = errors.New("model in use")

// ErrRegistryClosed is the failure every call sinks to once the registry has
// been closed; the HTTP layer maps it to 503. Test with errors.Is.
var ErrRegistryClosed = errors.New("registry closed")

// ErrNoArtifacts marks a LoadDir of a readable directory that simply holds
// no *.ckpt files — distinct from I/O failures (unreadable directory), which
// surface the underlying os error instead. Test with errors.Is.
var ErrNoArtifacts = errors.New("no checkpoint artifacts")

// Options configures a Registry.
type Options struct {
	// Serve is the template batching configuration applied to every
	// per-model server the registry starts (Seed included).
	Serve serve.Options
	// MaxLoaded bounds how many per-model servers may be started at once;
	// the least-recently-used unacquired server is drained to make room.
	// Acquired servers are never evicted, even if that means temporarily
	// exceeding the bound. 0 selects DefaultMaxLoaded.
	MaxLoaded int
	// Breaker configures the per-model circuit breaker; the zero value
	// selects the package defaults (trip after DefaultBreakerThreshold
	// consecutive failures, exponential backoff from DefaultBreakerBackoff).
	Breaker BreakerOptions
	// LenientScan makes LoadDir quarantine unreadable or corrupt artifacts —
	// recording path and reason, see Quarantined — instead of failing the
	// whole scan. This is the self-healing startup mode of adafgl-serve: one
	// bad file in the zoo directory must not keep every good model offline.
	LenientScan bool
}

// Registry is a concurrent, versioned index of checkpoint artifacts with
// lazily started, LRU-bounded, refcount-guarded serving instances. All
// methods are safe for concurrent use. Create with New, release with Close.
type Registry struct {
	mu     sync.Mutex
	opt    Options
	models map[string]*model
	loaded int    // started servers
	tick   uint64 // LRU clock
	// coldStarts counts successful server boots; concurrent acquires of one
	// loading entry must dedupe to a single boot, so tests pin this.
	coldStarts int
	closed     bool
	ab         *abState

	// breaker holds the defaults-resolved circuit-breaker parameters; rng is
	// its seeded jitter stream (guarded by mu). quarantined records the
	// artifacts a lenient LoadDir refused to register.
	breaker     BreakerOptions
	rng         *rand.Rand
	quarantined []QuarantinedArtifact
}

// model is one named line of versions with a single active one.
type model struct {
	name     string
	active   int
	versions map[int]*entry
}

// entry is one name@version artifact: its on-disk path, peeked header, and
// (once started) serving instance with refcount and LRU stamp.
type entry struct {
	name    string
	version int
	path    string
	hdr     *checkpoint.Header

	srv     *serve.Server
	loading chan struct{} // non-nil while a goroutine starts the server
	refs    int
	last    uint64 // LRU tick of the most recent acquire
	stats   modelStats
	// predicts is this artifact's adafgl_registry_predicts_total series,
	// resolved once at Add so the predict path never pays the family lookup.
	predicts *telemetry.Counter

	// Circuit-breaker state, guarded by Registry.mu: health is the exposed
	// state, failures the consecutive breaker-relevant failure run, trips the
	// consecutive trip count driving the exponential backoff, retryAt when an
	// open trip window lapses, lastErr the failure that opened it.
	health   HealthState
	failures int
	trips    int
	retryAt  time.Time
	lastErr  error
}

// ref formats the entry's name@version key.
func (e *entry) ref() string { return Ref(e.name, e.version) }

// Ref formats a name and version as the canonical "name@version" key.
func Ref(name string, version int) string { return fmt.Sprintf("%s@%d", name, version) }

// ParseRef splits a model reference "name" or "name@version" into its parts;
// version 0 means "the active version". Names must be non-empty and free of
// '/', '@' and whitespace so they can live in URL paths and filenames.
func ParseRef(ref string) (name string, version int, err error) {
	name = ref
	if i := strings.IndexByte(ref, '@'); i >= 0 {
		name = ref[:i]
		version, err = strconv.Atoi(ref[i+1:])
		if err != nil || version < 1 {
			return "", 0, fmt.Errorf("registry: ParseRef: bad version in %q", ref)
		}
	}
	if err := checkName(name); err != nil {
		return "", 0, err
	}
	return name, version, nil
}

// checkName validates a bare model name.
func checkName(name string) error {
	if name == "" || strings.ContainsAny(name, "/@ \t\n") {
		return fmt.Errorf("registry: bad model name %q", name)
	}
	return nil
}

// ModelInfo is the listing metadata of one registered artifact, drawn from
// the peeked checkpoint header plus the registry's runtime state.
type ModelInfo struct {
	// Name and Version key the artifact in the registry.
	Name    string `json:"name"`
	Version int    `json:"version"`
	// Active reports whether this version answers requests addressed to the
	// bare name.
	Active bool `json:"active"`
	// Loaded reports whether a serving instance is currently started.
	Loaded bool `json:"loaded"`
	// Arch is the checkpointed architecture's registry name.
	Arch string `json:"arch"`
	// Nodes and Classes are the serving graph's dimensions.
	Nodes   int `json:"nodes"`
	Classes int `json:"classes"`
	// Params is the length of the flattened parameter vector.
	Params int `json:"params"`
	// Bytes is the artifact's file size.
	Bytes int64 `json:"bytes"`
	// Path is the artifact's location on disk.
	Path string `json:"path"`
	// Health is the circuit-breaker state: "ok", "degraded" or "tripped".
	Health string `json:"health"`
	// LastError is the most recent breaker-relevant failure; empty while
	// healthy.
	LastError string `json:"last_error,omitempty"`
	// RetryAt is when a tripped model's backoff window lapses (RFC 3339);
	// empty unless tripped.
	RetryAt string `json:"retry_at,omitempty"`
}

// New creates an empty registry.
func New(opt Options) *Registry {
	if opt.MaxLoaded <= 0 {
		opt.MaxLoaded = DefaultMaxLoaded
	}
	return &Registry{
		opt: opt, models: make(map[string]*model),
		breaker: opt.Breaker.withDefaults(),
		rng:     breakerRNG(opt.Breaker.Seed),
	}
}

// Add registers the checkpoint at path as name@version, peeking its header
// for listing metadata without loading the model. The first version added
// under a name becomes its active version. Duplicate versions are rejected.
func (r *Registry) Add(name string, version int, path string) (ModelInfo, error) {
	if err := checkName(name); err != nil {
		return ModelInfo{}, fmt.Errorf("registry: Add: %w", err)
	}
	if version < 1 {
		return ModelInfo{}, fmt.Errorf("registry: Add: version %d < 1", version)
	}
	hdr, err := checkpoint.Peek(path)
	if err != nil {
		return ModelInfo{}, fmt.Errorf("registry: Add: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ModelInfo{}, fmt.Errorf("registry: Add: %w", ErrRegistryClosed)
	}
	m := r.models[name]
	if m == nil {
		m = &model{name: name, active: version, versions: make(map[int]*entry)}
		r.models[name] = m
	}
	if _, ok := m.versions[version]; ok {
		return ModelInfo{}, fmt.Errorf("registry: Add: duplicate version %s", Ref(name, version))
	}
	e := &entry{name: name, version: version, path: path, hdr: hdr, stats: newModelStats()}
	e.predicts = telPredicts.With(e.ref())
	m.versions[version] = e
	return r.infoLocked(m, e), nil
}

// AddFile registers path under the name and version encoded in its file
// stem: "name@3.ckpt" is version 3 of "name", a stem with no '@' is
// version 1.
func (r *Registry) AddFile(path string) (ModelInfo, error) {
	stem := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	name, version, err := ParseRef(stem)
	if err != nil {
		return ModelInfo{}, fmt.Errorf("registry: AddFile: %w", err)
	}
	if version == 0 {
		version = 1
	}
	return r.Add(name, version, path)
}

// QuarantinedArtifact records one zoo file a lenient LoadDir refused to
// register, with the reason (corrupt bytes, unreadable file, bad name), so
// operators can see what is missing from the listing and why.
type QuarantinedArtifact struct {
	// Path is the refused artifact's location on disk.
	Path string `json:"path"`
	// Reason classifies the refusal: "corrupt" for artifacts whose bytes
	// fail checkpoint validation, "unreadable" for filesystem failures,
	// "invalid" for bad names or versions.
	Reason string `json:"reason"`
	// Error is the full named-op failure text.
	Error string `json:"error"`
}

// LoadDir scans dir for *.ckpt artifacts and registers each via AddFile, in
// sorted filename order so version lines build deterministically. It returns
// the infos of everything added. A readable directory holding no *.ckpt
// files fails with ErrNoArtifacts — distinct, via errors.Is, from an
// unreadable directory, which surfaces the underlying os error. In strict
// mode (the default) the first bad artifact fails the whole scan; with
// Options.LenientScan bad artifacts are quarantined (see Quarantined) and
// the scan registers everything else — the self-healing startup of
// adafgl-serve.
func (r *Registry) LoadDir(dir string) ([]ModelInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: LoadDir: %w", err)
	}
	var names []string
	for _, de := range entries {
		if !de.IsDir() && filepath.Ext(de.Name()) == ".ckpt" {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("registry: LoadDir: %s holds no *.ckpt files: %w", dir, ErrNoArtifacts)
	}
	infos := make([]ModelInfo, 0, len(names))
	for _, n := range names {
		path := filepath.Join(dir, n)
		info, err := r.AddFile(path)
		if err != nil {
			if !r.opt.LenientScan {
				return nil, fmt.Errorf("registry: LoadDir: %s: %w", n, err)
			}
			r.mu.Lock()
			r.quarantined = append(r.quarantined, QuarantinedArtifact{
				Path: path, Reason: quarantineReason(err), Error: err.Error(),
			})
			r.mu.Unlock()
			continue
		}
		infos = append(infos, info)
	}
	return infos, nil
}

// quarantineReason classifies a refused artifact's failure for its
// quarantine record.
func quarantineReason(err error) string {
	switch {
	case errors.Is(err, checkpoint.ErrCorrupt):
		return "corrupt"
	case errors.Is(err, os.ErrNotExist), errors.Is(err, os.ErrPermission):
		return "unreadable"
	}
	var pathErr *os.PathError
	if errors.As(err, &pathErr) {
		return "unreadable"
	}
	return "invalid"
}

// Quarantined returns the artifacts a lenient LoadDir refused to register,
// in scan order.
func (r *Registry) Quarantined() []QuarantinedArtifact {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]QuarantinedArtifact(nil), r.quarantined...)
}

// infoLocked assembles the ModelInfo of e; r.mu must be held.
func (r *Registry) infoLocked(m *model, e *entry) ModelInfo {
	info := ModelInfo{
		Name: e.name, Version: e.version,
		Active: m.active == e.version, Loaded: e.srv != nil,
		Arch: e.hdr.Arch, Nodes: e.hdr.Nodes, Classes: e.hdr.Classes,
		Params: e.hdr.Params, Bytes: e.hdr.Bytes,
		Path: e.path, Health: e.health.String(),
	}
	if e.lastErr != nil {
		info.LastError = e.lastErr.Error()
	}
	if e.health == HealthTripped {
		info.RetryAt = e.retryAt.Format(time.RFC3339Nano)
	}
	return info
}

// List returns every registered artifact's metadata, sorted by name then
// version.
func (r *Registry) List() []ModelInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []ModelInfo
	for _, m := range r.models {
		for _, e := range m.versions {
			out = append(out, r.infoLocked(m, e))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// resolveLocked finds the entry for name@version (version 0 = active);
// r.mu must be held.
func (r *Registry) resolveLocked(name string, version int) (*model, *entry, error) {
	m := r.models[name]
	if m == nil {
		return nil, nil, fmt.Errorf("registry: unknown model %q: %w", name, ErrNotFound)
	}
	v := version
	if v == 0 {
		v = m.active
	}
	e := m.versions[v]
	if e == nil {
		return nil, nil, fmt.Errorf("registry: model %s has no version %d: %w", name, v, ErrNotFound)
	}
	return m, e, nil
}

// Handle is one acquired lease on a serving instance. The server is
// guaranteed started and never evicted or drained while the handle is held.
// Release it promptly — swaps retire old servers only after their last
// handle is gone.
type Handle struct {
	r    *Registry
	e    *entry
	srv  *serve.Server // pinned at acquire: stays valid across Close/evict
	once sync.Once
}

// Server returns the leased serving instance.
func (h *Handle) Server() *serve.Server { return h.srv }

// Name returns the leased model's name.
func (h *Handle) Name() string { return h.e.name }

// Version returns the leased model's version.
func (h *Handle) Version() int { return h.e.version }

// Release returns the lease. Idempotent.
func (h *Handle) Release() {
	h.once.Do(func() {
		h.r.mu.Lock()
		h.e.refs--
		h.r.mu.Unlock()
	})
}

// Acquire leases the serving instance for ref ("name" resolves to the active
// version, "name@version" pins one), starting it first if needed — possibly
// draining the least-recently-used idle server to stay within MaxLoaded.
// Concurrent acquires of a loading model wait for the one load.
func (r *Registry) Acquire(ref string) (*Handle, error) {
	name, version, err := ParseRef(ref)
	if err != nil {
		return nil, fmt.Errorf("registry: Acquire: %w", err)
	}
	return r.acquire(name, version)
}

// acquire implements Acquire for a parsed reference.
func (r *Registry) acquire(name string, version int) (*Handle, error) {
	r.mu.Lock()
	for {
		if r.closed {
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: Acquire: %w", ErrRegistryClosed)
		}
		_, e, err := r.resolveLocked(name, version)
		if err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: Acquire: %w", err)
		}
		// Circuit breaker: inside an open trip window the acquire fails fast
		// with the typed TrippedError (503 + Retry-After at the HTTP layer);
		// once the window lapsed this falls through as the half-open probe.
		if err := r.tripCheckLocked(e); err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: Acquire: %w", err)
		}
		if e.srv != nil {
			e.refs++
			r.tick++
			e.last = r.tick
			h := &Handle{r: r, e: e, srv: e.srv}
			r.mu.Unlock()
			return h, nil
		}
		if e.loading != nil {
			// Another goroutine is starting this server: wait off-lock for
			// it to finish, then re-resolve (the entry may have been removed
			// or the load may have failed).
			ch := e.loading
			r.mu.Unlock()
			<-ch
			r.mu.Lock()
			continue
		}
		// This goroutine starts the server. Mark the entry loading, pick
		// eviction victims under the lock, then do all slow work (draining
		// victims, loading the checkpoint) outside it.
		e.loading = make(chan struct{})
		victims := r.evictLocked()
		r.mu.Unlock()

		for _, v := range victims {
			v.Drain()
		}
		srv, err := r.start(e.path)

		r.mu.Lock()
		close(e.loading)
		e.loading = nil
		if err == nil && r.closed {
			// The registry shut down while this server was loading; it was
			// not in Close's drain set, so retire it here.
			r.mu.Unlock()
			srv.Drain()
			return nil, fmt.Errorf("registry: Acquire: %w", ErrRegistryClosed)
		}
		if err != nil {
			// A failed load (unreadable file, corrupt bytes)
			// counts toward tripping the model's breaker.
			r.recordFailureLocked(e, err)
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: Acquire: %s: %w", e.ref(), err)
		}
		r.recordSuccessLocked(e)
		e.srv = srv
		r.loaded++
		r.coldStarts++
		telColdStarts.Inc()
		e.refs++
		r.tick++
		e.last = r.tick
		r.mu.Unlock()
		return &Handle{r: r, e: e, srv: srv}, nil
	}
}

// start loads the checkpoint at path and boots its serving instance.
func (r *Registry) start(path string) (*serve.Server, error) {
	ck, err := checkpoint.Load(path)
	if err != nil {
		return nil, err
	}
	return serve.New(ck, r.opt.Serve)
}

// evictLocked picks started, unacquired, non-loading entries — least
// recently used first — until one more server fits within MaxLoaded,
// detaches their serving instances and returns them for the caller to drain
// outside the lock. Acquired servers are never evicted; when everything is
// acquired the bound is exceeded rather than failing the acquire.
func (r *Registry) evictLocked() []*serve.Server {
	var victims []*serve.Server
	for r.loaded+1 > r.opt.MaxLoaded {
		var lru *entry
		for _, m := range r.models {
			for _, e := range m.versions {
				if e.srv == nil || e.refs > 0 || e.loading != nil {
					continue
				}
				if lru == nil || e.last < lru.last {
					lru = e
				}
			}
		}
		if lru == nil {
			break // everything started is acquired: exceed the bound
		}
		victims = append(victims, lru.srv)
		lru.srv = nil
		r.loaded--
		telEvictions.Inc()
	}
	return victims
}

// Swap atomically makes version the active one for name, pre-starting its
// serving instance so the flip is zero-downtime: requests that already
// acquired the old version finish on it (their handles pin the old server),
// while every acquire after Swap returns routes to the new version. The old
// server stays warm for pinned acquires until the LRU reclaims it. Returns
// the previously active version.
func (r *Registry) Swap(name string, version int) (int, error) {
	if err := checkName(name); err != nil {
		return 0, fmt.Errorf("registry: Swap: %w", err)
	}
	if version < 1 {
		return 0, fmt.Errorf("registry: Swap: version %d < 1", version)
	}
	// Pre-start the incoming server while the outgoing one keeps serving;
	// the temporary handle also pins it against LRU eviction mid-swap.
	h, err := r.acquire(name, version)
	if err != nil {
		return 0, fmt.Errorf("registry: Swap: %w", err)
	}
	defer h.Release()
	r.mu.Lock()
	defer r.mu.Unlock()
	m, _, err := r.resolveLocked(name, version)
	if err != nil {
		return 0, fmt.Errorf("registry: Swap: %w", err)
	}
	prev := m.active
	m.active = version
	telSwaps.Inc()
	return prev, nil
}

// Remove deregisters name@version and drains its serving instance if
// started. The active version and acquired versions are protected: removing
// them fails with ErrInUse (swap away first).
func (r *Registry) Remove(name string, version int) error {
	r.mu.Lock()
	m, e, err := r.resolveLocked(name, version)
	if err != nil {
		r.mu.Unlock()
		return fmt.Errorf("registry: Remove: %w", err)
	}
	if m.active == e.version && len(m.versions) > 1 {
		r.mu.Unlock()
		return fmt.Errorf("registry: Remove: %s is the active version: %w", e.ref(), ErrInUse)
	}
	if e.refs > 0 || e.loading != nil {
		r.mu.Unlock()
		return fmt.Errorf("registry: Remove: %s is acquired: %w", e.ref(), ErrInUse)
	}
	srv := e.srv
	if srv != nil {
		e.srv = nil
		r.loaded--
	}
	delete(m.versions, version)
	if len(m.versions) == 0 {
		delete(r.models, name)
	}
	r.mu.Unlock()
	if srv != nil {
		srv.Drain()
	}
	return nil
}

// Close drains every started serving instance and fails all future calls.
// In-flight predictions finish; this is the graceful fleet shutdown the
// serve binary runs on SIGTERM.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	var servers []*serve.Server
	for _, m := range r.models {
		for _, e := range m.versions {
			if e.srv != nil {
				servers = append(servers, e.srv)
				e.srv = nil
				r.loaded--
			}
		}
	}
	r.mu.Unlock()
	for _, s := range servers {
		s.Drain()
	}
}
