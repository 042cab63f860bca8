package substream

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	hybridprng "repro"
)

// DefaultMaxResident caps resident (live-generator) tenants when
// Config.MaxResident is zero. Each resident tenant owns one walker
// (~a few hundred bytes of walk state plus feed state), so the
// default comfortably serves a large key set while bounding memory.
const DefaultMaxResident = 1024

// Config configures a Registry. The derivation parameters (RootSeed,
// Feed, WalkLen, InitWalkLen, HealthHMin) define the tenant streams
// and are captured in the state blob; the runtime knobs (MaxResident,
// RatePerSec, Burst, Now) shape serving behaviour and are NOT
// persisted — a restored node applies its own flags.
type Config struct {
	RootSeed    uint64  // root of the per-key derivation
	Feed        string  // feed generator name; "" means hybridprng.FeedGlibc
	WalkLen     int     // per-draw walk length, at most hybridprng.MaxWalkLen; 0 means the package default
	InitWalkLen int     // Algorithm 1 init walk length, at most hybridprng.MaxWalkLen; 0 means the package default
	HealthHMin  float64 // SP 800-90B floor per tenant stream; 0 disables

	MaxResident int     // LRU cap on resident streams; 0 means DefaultMaxResident
	RatePerSec  float64 // per-tenant token-bucket refill, in words/sec; 0 means unlimited
	Burst       float64 // per-tenant bucket capacity in words; 0 means max(RatePerSec, 1)

	// Now is the clock the token buckets read. Injected so
	// rate-limit behaviour is testable with a fake clock, mirroring
	// Pool.WithClock.
	Now func() time.Time
}

// RateLimitError reports a draw rejected by a tenant's token bucket.
// RetryAfter is how long the bucket needs to refill enough for the
// rejected draw; the serving layer maps it to 429 + Retry-After.
type RateLimitError struct {
	Key        string
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("substream: tenant %q rate limited; retry after %s", e.Key, e.RetryAfter)
}

// tenant is one keyed stream. A resident tenant holds a live
// generator; an evicted tenant's state lives in Registry.parked as a
// marshalled blob until the key is drawn again.
type tenant struct {
	key  string // canonical form; immutable
	seed uint64 // DeriveSeed(root, key); immutable

	elem *list.Element // position in the LRU; guarded by Registry.mu

	mu      sync.Mutex
	gen     *hybridprng.Generator // guarded by mu
	evicted bool                  // set at eviction; draws must re-resolve; guarded by mu
	tokens  float64               // token bucket level, in words; guarded by mu
	last    time.Time             // last bucket refill instant; guarded by mu

	draws atomic.Uint64 // words served via u64 draws
	bytes atomic.Uint64 // bytes served via byte draws
	sheds atomic.Uint64 // draws rejected by the rate limit
}

// parked is an evicted tenant: the exact-resume generator blob plus
// the meters and bucket level, so eviction is invisible to both the
// stream and the accounting.
type parked struct {
	blob   []byte
	draws  uint64
	bytes  uint64
	sheds  uint64
	tokens float64
}

// Registry maps canonical tenant keys to independent walker streams.
// Streams are created lazily on first draw (full Algorithm 1 init),
// capped by an LRU over resident generators — evicted tenants park
// their exact-resume blob and resume bitwise on the next draw — and
// individually checkpointed by MarshalBinary. Safe for concurrent
// use.
type Registry struct {
	cfg   Config
	now   func() time.Time
	burst float64 // resolved bucket capacity in words

	mu        sync.Mutex         //lint:lockorder before tenant.mu resolution and LRU eviction take the registry lock first, then park each tenant under its own; draws that find their tenant evicted drop tenant.mu before re-resolving
	resident  map[string]*tenant // guarded by mu
	parked    map[string]*parked // guarded by mu
	lru       *list.List         // resident tenants, most recent at front; guarded by mu
	seeds     map[uint64]string  // derived-seed collision audit; guarded by mu
	evictions uint64             // guarded by mu
}

// New builds an empty registry. The zero Config is valid: glibc
// feed, package-default walk lengths, DefaultMaxResident streams, no
// rate limit, wall clock. New builds the generator a new tenant would
// get, so it refuses a feed, walk length or health claim that would
// fail every tenant's first draw.
func New(cfg Config) (*Registry, error) {
	if cfg.Feed == "" {
		cfg.Feed = hybridprng.FeedGlibc
	}
	if _, err := hybridprng.New(cfg.genOptions(0)...); err != nil {
		return nil, fmt.Errorf("substream: tenant generator: %w", err)
	}
	if cfg.MaxResident <= 0 {
		cfg.MaxResident = DefaultMaxResident
	}
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.RatePerSec
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	r := &Registry{
		cfg:      cfg,
		now:      cfg.Now,
		burst:    cfg.Burst,
		resident: make(map[string]*tenant),
		parked:   make(map[string]*parked),
		lru:      list.New(),
		seeds:    make(map[uint64]string),
	}
	if r.now == nil {
		r.now = time.Now //lint:wallclock default when Config.Now was not injected; Now IS the injection point
	}
	return r, nil
}

// Restore builds a registry from a state blob produced by
// MarshalBinary. The derivation parameters come from the blob (they
// define the streams being resumed); the runtime knobs — MaxResident,
// RatePerSec, Burst, Now — come from cfg.
func Restore(blob []byte, cfg Config) (*Registry, error) {
	r, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	return r, nil
}

// Uint64 draws the tenant's next 64-bit value.
func (r *Registry) Uint64(key string) (uint64, error) {
	var buf [1]uint64
	if err := r.Fill(key, buf[:]); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// Fill fills dst from the tenant's stream. On any error — bad key,
// rate limit, derivation collision, a tripped health monitor — dst
// is zeroed, the same contract as Pool.Fill: stale buffer contents
// must never be consumable as randomness. Each word costs one token.
func (r *Registry) Fill(key string, dst []uint64) error {
	err := r.draw(key, len(dst), func(g *hybridprng.Generator) { g.Fill(dst) },
		func(t *tenant) { t.draws.Add(uint64(len(dst))) })
	if err != nil {
		zeroWords(dst)
		return err
	}
	return nil
}

// FillBytes fills b from the tenant's stream, little-endian word by
// word with a partial final word for ragged lengths — the layout of
// Generator.Read and the /bytes endpoint. On any error b is zeroed.
// Each (possibly partial) word costs one token.
func (r *Registry) FillBytes(key string, b []byte) error {
	err := r.draw(key, (len(b)+7)/8, func(g *hybridprng.Generator) { g.Read(b) },
		func(t *tenant) { t.bytes.Add(uint64(len(b))) })
	if err != nil {
		zeroBytes(b)
		return err
	}
	return nil
}

// draw resolves key's resident tenant, charges words tokens from its
// bucket, runs fill on its generator and meters the draw with served,
// all under the tenant's lock. The meters are bumped there because
// eviction snapshots them under the same lock: a meter bumped after
// the unlock could land on an already-parked tenant and be lost. A
// tenant evicted between lookup and lock holds a stale generator (its
// state was parked), so draw re-resolves, which unparks it.
//
// A tenant whose SP 800-90B monitor has tripped, before the draw or
// during it, fails with the monitor's *bitsource.HealthError and is
// not metered. It is never reseeded, which would change its keyed
// stream: the trip travels in the parked and checkpointed generator
// blob, so the key stays refused across eviction and restore.
func (r *Registry) draw(key string, words int, fill func(*hybridprng.Generator), served func(*tenant)) error {
	for {
		t, err := r.tenant(key)
		if err != nil {
			return err
		}
		t.mu.Lock()
		if t.evicted {
			t.mu.Unlock()
			continue
		}
		err = t.gen.HealthErr()
		if err == nil {
			err = t.takeLocked(r, words)
		}
		if err == nil {
			fill(t.gen)
			if err = t.gen.HealthErr(); err == nil {
				served(t)
			}
		}
		t.mu.Unlock()
		return err
	}
}

// takeLocked charges words tokens from the bucket, refilling it from
// the injected clock first. Caller holds t.mu.
func (t *tenant) takeLocked(r *Registry, words int) error {
	if r.cfg.RatePerSec <= 0 {
		return nil
	}
	now := r.now()
	if elapsed := now.Sub(t.last).Seconds(); elapsed > 0 {
		t.tokens += elapsed * r.cfg.RatePerSec
		if t.tokens > r.burst {
			t.tokens = r.burst
		}
	}
	t.last = now
	need := float64(words)
	if t.tokens >= need {
		t.tokens -= need
		return nil
	}
	wait := time.Duration((need - t.tokens) / r.cfg.RatePerSec * float64(time.Second))
	t.sheds.Add(1)
	return &RateLimitError{Key: t.key, RetryAfter: wait}
}

// tenant resolves key to its resident tenant: canonicalize, then
// look up / unpark / create, evicting the LRU tail past the resident
// cap. New keys pay the full Algorithm 1 init walk; unparked keys
// restore their exact walk state, so eviction never perturbs a
// stream.
func (r *Registry) tenant(key string) (*tenant, error) {
	k, err := Canonical(key)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.resident[k]; ok {
		r.lru.MoveToFront(t.elem)
		return t, nil
	}
	t, err := r.admitLocked(k)
	if err != nil {
		return nil, err
	}
	for r.lru.Len() > r.cfg.MaxResident {
		r.evictTailLocked()
	}
	return t, nil
}

// admitLocked creates or unparks the tenant for canonical key k and
// makes it resident. Caller holds r.mu.
func (r *Registry) admitLocked(k string) (*tenant, error) {
	seed := DeriveSeed(r.cfg.RootSeed, k)
	if prev, taken := r.seeds[seed]; taken && prev != k {
		return nil, &CollisionError{Key: k, Existing: prev, Seed: seed}
	}
	t := &tenant{key: k, seed: seed, tokens: r.burst}
	if p, ok := r.parked[k]; ok {
		g := new(hybridprng.Generator)
		if err := g.UnmarshalBinary(p.blob); err != nil {
			return nil, fmt.Errorf("substream: unparking tenant %q: %w", k, err)
		}
		t.gen = g
		t.tokens = p.tokens
		t.draws.Store(p.draws)
		t.bytes.Store(p.bytes)
		t.sheds.Store(p.sheds)
		delete(r.parked, k)
	} else {
		g, err := hybridprng.New(r.cfg.genOptions(seed)...)
		if err != nil {
			return nil, fmt.Errorf("substream: creating tenant %q: %w", k, err)
		}
		t.gen = g
	}
	r.seeds[seed] = k
	r.resident[k] = t
	t.elem = r.lru.PushFront(t)
	return t, nil
}

// genOptions is the option set every tenant generator is built with,
// so creation and the checks in New and the state decoder cannot
// drift.
func (c Config) genOptions(seed uint64) []hybridprng.Option {
	opts := []hybridprng.Option{
		hybridprng.WithSeed(seed),
		hybridprng.WithFeed(c.Feed),
	}
	if c.WalkLen > 0 {
		opts = append(opts, hybridprng.WithWalkLength(c.WalkLen))
	}
	if c.InitWalkLen > 0 {
		opts = append(opts, hybridprng.WithInitWalkLength(c.InitWalkLen))
	}
	if c.HealthHMin > 0 {
		opts = append(opts, hybridprng.WithHealthMonitoring(c.HealthHMin))
	}
	return opts
}

// evictTailLocked parks the least-recently-used tenant. Caller holds
// r.mu; acquires the victim's mu (lock order: Registry.mu then
// tenant.mu, everywhere), so an in-flight draw on the victim
// completes before its state is captured.
func (r *Registry) evictTailLocked() {
	back := r.lru.Back()
	if back == nil {
		return
	}
	t := back.Value.(*tenant)
	t.mu.Lock()
	blob, err := t.gen.MarshalBinary()
	if err != nil {
		// Marshal of a live generator cannot fail; if it somehow
		// does, keep the tenant resident rather than lose its stream.
		t.mu.Unlock()
		r.lru.MoveToFront(back)
		return
	}
	t.evicted = true
	tokens := t.tokens
	t.mu.Unlock()
	r.parked[t.key] = &parked{
		blob:   blob,
		draws:  t.draws.Load(),
		bytes:  t.bytes.Load(),
		sheds:  t.sheds.Load(),
		tokens: tokens,
	}
	r.lru.Remove(back)
	delete(r.resident, t.key)
	r.evictions++
}

// TenantStats is one tenant's meter snapshot.
type TenantStats struct {
	Key      string `json:"key"`
	Resident bool   `json:"resident"`
	Draws    uint64 `json:"draws"` // words served via u64 draws
	Bytes    uint64 `json:"bytes"` // bytes served via byte draws
	Sheds    uint64 `json:"sheds"` // rate-limited rejections
}

// Stats is a point-in-time snapshot of the registry.
type Stats struct {
	Tenants   int           `json:"tenants"`  // resident + parked
	Resident  int           `json:"resident"` // live generators
	Evictions uint64        `json:"evictions"`
	PerTenant []TenantStats `json:"per_tenant"`
}

// Stats reports per-tenant meters and registry occupancy, sorted
// stably by key for deterministic /metrics output.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{
		Resident:  len(r.resident),
		Tenants:   len(r.resident) + len(r.parked),
		Evictions: r.evictions,
		PerTenant: make([]TenantStats, 0, len(r.resident)+len(r.parked)),
	}
	for _, k := range r.sortedKeysLocked() {
		if t, ok := r.resident[k]; ok {
			s.PerTenant = append(s.PerTenant, TenantStats{
				Key: k, Resident: true,
				Draws: t.draws.Load(), Bytes: t.bytes.Load(), Sheds: t.sheds.Load(),
			})
			continue
		}
		p := r.parked[k]
		s.PerTenant = append(s.PerTenant, TenantStats{
			Key: k, Draws: p.draws, Bytes: p.bytes, Sheds: p.sheds,
		})
	}
	return s
}

// sortedKeysLocked returns every tenant key (resident and parked) in
// sorted order. Caller holds r.mu.
func (r *Registry) sortedKeysLocked() []string {
	keys := make([]string, 0, len(r.resident)+len(r.parked))
	for k := range r.resident {
		keys = append(keys, k)
	}
	for k := range r.parked {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func zeroWords(dst []uint64) {
	for i := range dst {
		dst[i] = 0
	}
}

func zeroBytes(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
