package hybridprng

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/baselines"
	"repro/internal/bitsource"
	"repro/internal/core"
	"repro/internal/expander"
	"repro/internal/rng"
)

// Generator state serialisation: MarshalBinary captures everything —
// configuration, walk position, output count, the feed generator's
// internal state, the bit-reader's partial word and (when
// WithHealthMonitoring is on) the SP 800-90B monitor's counters and
// trip state — so UnmarshalBinary resumes the exact stream:
//
//	blob, _ := g.MarshalBinary()
//	g2 := new(hybridprng.Generator)
//	_ = g2.UnmarshalBinary(blob)
//	// g2.Uint64() == what g.Uint64() would have returned
//
// Format (versioned, little-endian):
//
//	magic "hprng" | version | feed tag | walkLen u32 | initWalkLen u32
//	| pos u64 | generated u64 | brWord u64 | brLeft u8
//	| feedStateLen u16 | feedState …
//	| monStateLen u16 | monState …            (v2; 0 = no monitor)
//
// Version 1 blobs (written before health monitoring was
// checkpointable) end after the feed state and restore with no
// monitor. Parallel and Pool wrap the same per-walker format in
// container formats of their own (see their Marshal methods).
const (
	stateMagic   = "hprng"
	stateVersion = 2

	parMagic   = "hprng-par"
	parVersion = 1
	poolMagic  = "hprng-pool"
	// poolVersion 3 carries the recovery policy, the pool trip/recovery
	// counters and per-shard recovery state (state machine position,
	// trip count, reseed base, remaining quarantine backoff, probation
	// balance) so a snapshot taken mid-recovery resumes on the exact
	// same recovery timeline. Version 1 blobs (written before
	// self-healing; there was no pool v2) still decode: their tripped
	// shards restore as retired, the legacy semantics they were written
	// under.
	poolVersion = 3
)

var (
	_ encoding.BinaryMarshaler   = (*Generator)(nil)
	_ encoding.BinaryUnmarshaler = (*Generator)(nil)
	_ encoding.BinaryMarshaler   = (*Parallel)(nil)
	_ encoding.BinaryUnmarshaler = (*Parallel)(nil)
	_ encoding.BinaryMarshaler   = (*Pool)(nil)
	_ encoding.BinaryUnmarshaler = (*Pool)(nil)
)

// feedTag maps the feed implementation to a persistent tag.
func feedTag(src rng.Source) (byte, encoding.BinaryMarshaler, error) {
	switch s := src.(type) {
	case *baselines.GlibcRand:
		return 1, s, nil
	case *baselines.ANSIC:
		return 2, s, nil
	case *baselines.SplitMix64:
		return 3, s, nil
	default:
		return 0, nil, fmt.Errorf("hybridprng: feed %T is not checkpointable", src)
	}
}

func feedFromTag(tag byte) (rng.Source, encoding.BinaryUnmarshaler, error) {
	switch tag {
	case 1:
		g := baselines.NewGlibcRand(1)
		return g, g, nil
	case 2:
		g := baselines.NewANSIC(1)
		return g, g, nil
	case 3:
		g := baselines.NewSplitMix64(1)
		return g, g, nil
	default:
		return nil, nil, fmt.Errorf("hybridprng: unknown feed tag %d", tag)
	}
}

// marshalWalker encodes one walker's complete resume state. When the
// walker's bit reader sits behind a bitsource.Monitor the monitor is
// unwrapped: its raw feed is serialised through the feed-tag table
// and its own window/counter/trip state rides along, so a restored
// stream keeps both its position and its health history.
func marshalWalker(w *core.Walker) ([]byte, error) {
	br := w.Bits()
	src := br.Source()
	var monState []byte
	if mon, ok := src.(*bitsource.Monitor); ok {
		var err error
		if monState, err = mon.MarshalBinary(); err != nil {
			return nil, err
		}
		src = mon.Source()
	}
	tag, fm, err := feedTag(src)
	if err != nil {
		return nil, err
	}
	feedState, err := fm.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if len(feedState) > 0xFFFF {
		return nil, fmt.Errorf("hybridprng: feed state too large (%d bytes)", len(feedState))
	}
	if len(monState) > 0xFFFF {
		return nil, fmt.Errorf("hybridprng: monitor state too large (%d bytes)", len(monState))
	}
	cfg := w.Config()
	word, left := br.State()

	out := append([]byte(stateMagic), stateVersion, tag)
	var b8 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b8[:4], v)
		out = append(out, b8[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		out = append(out, b8[:]...)
	}
	put32(uint32(cfg.WalkLen))
	put32(uint32(cfg.InitWalkLen))
	put64(w.Position().ID())
	put64(w.Generated())
	put64(word)
	out = append(out, byte(left))
	binary.LittleEndian.PutUint16(b8[:2], uint16(len(feedState)))
	out = append(out, b8[:2]...)
	out = append(out, feedState...)
	binary.LittleEndian.PutUint16(b8[:2], uint16(len(monState)))
	out = append(out, b8[:2]...)
	return append(out, monState...), nil
}

// unmarshalWalker decodes a blob written by marshalWalker (or by the
// v1 encoder). The returned monitor is nil when the blob carries
// none; otherwise it is already wired between the feed and the
// returned walker's bit reader.
func unmarshalWalker(data []byte) (*core.Walker, *bitsource.Monitor, error) {
	const fixedV1 = len(stateMagic) + 2 + 4 + 4 + 8 + 8 + 8 + 1 + 2
	if len(data) < fixedV1 {
		return nil, nil, fmt.Errorf("hybridprng: state too short (%d bytes)", len(data))
	}
	if string(data[:len(stateMagic)]) != stateMagic {
		return nil, nil, fmt.Errorf("hybridprng: bad state magic")
	}
	p := data[len(stateMagic):]
	version := p[0]
	if version != 1 && version != stateVersion {
		return nil, nil, fmt.Errorf("hybridprng: unsupported state version %d", version)
	}
	tag := p[1]
	p = p[2:]
	walkLen := binary.LittleEndian.Uint32(p)
	initWalkLen := binary.LittleEndian.Uint32(p[4:])
	pos := binary.LittleEndian.Uint64(p[8:])
	generated := binary.LittleEndian.Uint64(p[16:])
	brWord := binary.LittleEndian.Uint64(p[24:])
	brLeft := p[32]
	feedLen := int(binary.LittleEndian.Uint16(p[33:]))
	p = p[35:]
	if len(p) < feedLen {
		return nil, nil, fmt.Errorf("hybridprng: feed state truncated (%d of %d bytes)", len(p), feedLen)
	}
	feedState := p[:feedLen]
	p = p[feedLen:]
	var monState []byte
	switch version {
	case 1:
		if len(p) != 0 {
			return nil, nil, fmt.Errorf("hybridprng: %d trailing bytes after v1 state", len(p))
		}
	default:
		if len(p) < 2 {
			return nil, nil, fmt.Errorf("hybridprng: monitor state length truncated")
		}
		monLen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) != monLen {
			return nil, nil, fmt.Errorf("hybridprng: monitor state length %d, want %d", len(p), monLen)
		}
		monState = p
	}
	if brLeft > 64 {
		return nil, nil, fmt.Errorf("hybridprng: bit buffer count %d out of range", brLeft)
	}
	// Bound the walk lengths: a forged blob must not be able to turn
	// every draw into a multi-minute walk.
	const maxWalk = 1 << 20
	if walkLen < 1 || walkLen > maxWalk {
		return nil, nil, fmt.Errorf("hybridprng: walk length %d outside [1, %d]", walkLen, maxWalk)
	}
	if initWalkLen > maxWalk {
		return nil, nil, fmt.Errorf("hybridprng: init walk length %d exceeds %d", initWalkLen, maxWalk)
	}

	src, fu, err := feedFromTag(tag)
	if err != nil {
		return nil, nil, err
	}
	if err := fu.UnmarshalBinary(feedState); err != nil {
		return nil, nil, err
	}
	var mon *bitsource.Monitor
	reader := src
	if len(monState) > 0 {
		if mon, err = bitsource.RestoreMonitor(src, monState); err != nil {
			return nil, nil, err
		}
		reader = mon
	}
	br := rng.NewBitReader(reader)
	br.SetState(brWord, uint(brLeft))
	w, err := core.RestoreWalker(br, core.Config{
		WalkLen:     int(walkLen),
		InitWalkLen: int(initWalkLen),
	}, expander.VertexFromID(pos), generated)
	if err != nil {
		return nil, nil, err
	}
	return w, mon, nil
}

// MarshalBinary checkpoints the generator, including a health
// monitor's state when WithHealthMonitoring is on.
func (g *Generator) MarshalBinary() ([]byte, error) {
	return marshalWalker(g.w)
}

// UnmarshalBinary restores a checkpoint written by MarshalBinary
// into g, replacing its state entirely. A generator checkpointed
// with a tripped health monitor restores with HealthErr still
// reporting the failure.
func (g *Generator) UnmarshalBinary(data []byte) error {
	w, mon, err := unmarshalWalker(data)
	if err != nil {
		return err
	}
	g.w, g.health = w, mon
	return nil
}

// appendPrefixed appends a u32 length header and the blob.
func appendPrefixed(out, blob []byte) []byte {
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(blob)))
	return append(append(out, b4[:]...), blob...)
}

// takePrefixed consumes a u32 length-prefixed blob from p.
func takePrefixed(p []byte, what string) (blob, rest []byte, err error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("hybridprng: %s length truncated", what)
	}
	// Compared as uint64: int(n) is negative on 32-bit hosts for
	// n ≥ 2^31 and would pass a signed length check.
	n := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if uint64(n) > uint64(len(p)) {
		return nil, nil, fmt.Errorf("hybridprng: %s truncated (%d of %d bytes)", what, len(p), n)
	}
	return p[:n], p[n:], nil
}

// MarshalBinary checkpoints every worker of the pool: the container
// is the magic, a version, the worker count and one length-prefixed
// per-walker state per worker. Not safe to call while other
// goroutines draw from the workers.
func (p *Parallel) MarshalBinary() ([]byte, error) {
	out := append([]byte(parMagic), parVersion)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(p.pool.Size()))
	out = append(out, b4[:]...)
	for i := 0; i < p.pool.Size(); i++ {
		blob, err := marshalWalker(p.pool.Walker(i))
		if err != nil {
			return nil, fmt.Errorf("hybridprng: worker %d: %w", i, err)
		}
		out = appendPrefixed(out, blob)
	}
	return out, nil
}

// UnmarshalBinary restores a Parallel written by MarshalBinary,
// replacing p's state entirely; every worker resumes its exact
// stream, monitors included.
func (p *Parallel) UnmarshalBinary(data []byte) error {
	if len(data) < len(parMagic)+1+4 {
		return fmt.Errorf("hybridprng: parallel state too short (%d bytes)", len(data))
	}
	if string(data[:len(parMagic)]) != parMagic {
		return fmt.Errorf("hybridprng: bad parallel state magic")
	}
	rest := data[len(parMagic):]
	if rest[0] != parVersion {
		return fmt.Errorf("hybridprng: unsupported parallel state version %d", rest[0])
	}
	workers := int(binary.LittleEndian.Uint32(rest[1:]))
	rest = rest[5:]
	if workers < 1 || workers > maxShards {
		return fmt.Errorf("hybridprng: worker count %d outside [1, %d]", workers, maxShards)
	}
	walkers := make([]*core.Walker, workers)
	monitors := make([]*bitsource.Monitor, workers)
	for i := range walkers {
		blob, r, err := takePrefixed(rest, fmt.Sprintf("worker %d state", i))
		if err != nil {
			return err
		}
		rest = r
		if walkers[i], monitors[i], err = unmarshalWalker(blob); err != nil {
			return fmt.Errorf("hybridprng: worker %d: %w", i, err)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("hybridprng: %d trailing bytes after parallel state", len(rest))
	}
	pool, err := core.PoolFromWalkers(walkers)
	if err != nil {
		return err
	}
	p.pool, p.monitors = pool, monitors
	return nil
}

// MarshalBinary checkpoints the pool: shard geometry, the ticket
// counter, the recovery policy and counters, and per shard the
// walker (with monitor), the unread ring residue, the serving
// counters and the full recovery state. Each shard is captured under
// its lock, so a snapshot taken while other goroutines draw is
// consistent per shard (every draw lands entirely before or entirely
// after it); for an exact global resume point, quiesce traffic first
// — cmd/randd drains its HTTP server before the shutdown snapshot. A
// non-healthy shard's residue is written empty: SP 800-90B forbids
// serving words buffered before a failure. A quarantined shard's
// backoff is stored as *remaining* duration, so restore re-anchors
// it to the restoring process's clock.
func (p *Pool) MarshalBinary() ([]byte, error) {
	out := append([]byte(poolMagic), poolVersion)
	var b8 [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(b8[:4], v)
		out = append(out, b8[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		out = append(out, b8[:]...)
	}
	put32(uint32(len(p.shards)))
	put32(uint32(len(p.shards[0].buf)))
	put64(p.tickets.Load())
	pol := p.policy
	if pol.Disabled {
		out = append(out, 1)
	} else {
		out = append(out, 0)
	}
	put64(uint64(pol.QuarantineBase))
	put64(math.Float64bits(pol.BackoffFactor))
	put64(uint64(pol.QuarantineMax))
	put64(math.Float64bits(pol.JitterFrac))
	put32(uint32(pol.ProbationWords))
	put32(uint32(pol.MaxTrips))
	put64(p.tripEvents.Load())
	put64(p.recoveries.Load())
	now := p.now()
	for i, s := range p.shards {
		blob, err := s.marshalBinary(now)
		if err != nil {
			return nil, fmt.Errorf("hybridprng: shard %d: %w", i, err)
		}
		out = appendPrefixed(out, blob)
	}
	return out, nil
}

// marshalBinary captures one shard under its lock.
func (s *poolShard) marshalBinary(now time.Time) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wBlob, err := marshalWalker(s.w)
	if err != nil {
		return nil, err
	}
	var out []byte
	out = appendPrefixed(out, wBlob)
	var b8 [8]byte
	state := shardState(s.state.Load())
	residue := s.buf[s.idx.Load():]
	if state != shardHealthy {
		residue = nil
	}
	binary.LittleEndian.PutUint32(b8[:4], uint32(len(residue)))
	out = append(out, b8[:4]...)
	for _, v := range residue {
		binary.LittleEndian.PutUint64(b8[:], v)
		out = append(out, b8[:]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b8[:], v)
		out = append(out, b8[:]...)
	}
	put64(s.draws.Load())
	put64(s.refills.Load())
	out = append(out, byte(state))
	binary.LittleEndian.PutUint32(b8[:4], s.trips.Load())
	out = append(out, b8[:4]...)
	put64(s.reseedBase)
	put64(uint64(s.retryIn(now)))
	probLeft := 0
	if state == shardProbation {
		probLeft = s.probLeft
	}
	binary.LittleEndian.PutUint32(b8[:4], uint32(probLeft))
	out = append(out, b8[:4]...)
	if he := s.err.Load(); he != nil && state != shardHealthy {
		out = append(out, 1)
		for _, str := range []string{he.Test, he.Detail} {
			if len(str) > 0xFFFF {
				return nil, fmt.Errorf("hybridprng: shard failure detail too long")
			}
			binary.LittleEndian.PutUint16(b8[:2], uint16(len(str)))
			out = append(out, b8[:2]...)
			out = append(out, str...)
		}
	} else {
		out = append(out, 0)
	}
	return out, nil
}

// takeFailure consumes the optional failure-detail record shared by
// the v1 and v3 shard formats.
func takeFailure(rest []byte) (*bitsource.HealthError, []byte, error) {
	if len(rest) < 1 {
		return nil, nil, fmt.Errorf("hybridprng: shard failure flag truncated")
	}
	flagged := rest[0] != 0
	rest = rest[1:]
	if !flagged {
		return nil, rest, nil
	}
	var strs [2]string
	for i := range strs {
		if len(rest) < 2 {
			return nil, nil, fmt.Errorf("hybridprng: shard failure detail truncated")
		}
		n := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < n {
			return nil, nil, fmt.Errorf("hybridprng: shard failure detail truncated")
		}
		strs[i] = string(rest[:n])
		rest = rest[n:]
	}
	return &bitsource.HealthError{Test: strs[0], Detail: strs[1]}, rest, nil
}

// unmarshalShard rebuilds one shard; bufWords is the ring capacity
// and version the container version from the pool header. now
// re-anchors a quarantined shard's remaining backoff.
func unmarshalShard(blob []byte, bufWords int, version byte, now time.Time) (*poolShard, error) {
	wBlob, rest, err := takePrefixed(blob, "shard walker state")
	if err != nil {
		return nil, err
	}
	w, mon, err := unmarshalWalker(wBlob)
	if err != nil {
		return nil, err
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("hybridprng: shard residue length truncated")
	}
	n := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint64(n) > uint64(bufWords) { // unsigned, as in takePrefixed
		return nil, fmt.Errorf("hybridprng: ring residue %d exceeds buffer %d", n, bufWords)
	}
	nRes := int(n)
	if len(rest) < 8*nRes+8+8 {
		return nil, fmt.Errorf("hybridprng: shard state truncated")
	}
	buf := make([]uint64, bufWords)
	idx := bufWords - nRes
	for i := 0; i < nRes; i++ {
		buf[idx+i] = binary.LittleEndian.Uint64(rest[8*i:])
	}
	rest = rest[8*nRes:]
	s := &poolShard{w: w, mon: mon, buf: buf}
	s.idx.Store(int64(idx))
	s.draws.Store(binary.LittleEndian.Uint64(rest))
	s.refills.Store(binary.LittleEndian.Uint64(rest[8:]))
	rest = rest[16:]

	if version == 1 {
		// Legacy blob: a tripped shard was retired permanently, and
		// that is how it restores — a v1 snapshot must not resurrect a
		// feed that failed its health tests.
		he, r, err := takeFailure(rest)
		if err != nil {
			return nil, err
		}
		rest = r
		if he != nil {
			s.err.Store(he)
			s.drain()
			s.state.Store(uint32(shardRetired))
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("hybridprng: %d trailing bytes after shard state", len(rest))
		}
		return s, nil
	}

	if len(rest) < 1+4+8+8+4 {
		return nil, fmt.Errorf("hybridprng: shard recovery state truncated")
	}
	state := shardState(rest[0])
	if state > shardRetired {
		return nil, fmt.Errorf("hybridprng: unknown shard state %d", rest[0])
	}
	s.trips.Store(binary.LittleEndian.Uint32(rest[1:]))
	s.reseedBase = binary.LittleEndian.Uint64(rest[5:])
	remaining := time.Duration(binary.LittleEndian.Uint64(rest[13:]))
	probLeft := int(binary.LittleEndian.Uint32(rest[21:]))
	rest = rest[25:]
	he, rest, err := takeFailure(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("hybridprng: %d trailing bytes after shard state", len(rest))
	}
	if remaining < 0 || remaining > 1000*time.Hour {
		return nil, fmt.Errorf("hybridprng: shard backoff %v out of range", remaining)
	}
	if probLeft < 0 || probLeft > maxShardBuffer {
		return nil, fmt.Errorf("hybridprng: shard probation balance %d out of range", probLeft)
	}
	s.state.Store(uint32(state))
	s.err.Store(he)
	switch state {
	case shardHealthy:
	case shardQuarantined:
		s.drain()
		until := now.Add(remaining)
		s.until.Store(&until)
	case shardProbation:
		s.drain()
		s.probLeft = probLeft
	case shardRetired:
		s.drain()
	}
	return s, nil
}

// UnmarshalBinary restores a Pool written by MarshalBinary,
// replacing p's state entirely — including mid-recovery shards,
// which resume their quarantine countdown (re-anchored to this
// process's clock; call SetClock *before* UnmarshalBinary to restore
// against a test clock) or their probation balance. v1 blobs decode
// with their tripped shards retired, the semantics they were written
// under.
func (p *Pool) UnmarshalBinary(data []byte) error {
	if len(data) < len(poolMagic)+1+4+4+8 {
		return fmt.Errorf("hybridprng: pool state too short (%d bytes)", len(data))
	}
	if string(data[:len(poolMagic)]) != poolMagic {
		return fmt.Errorf("hybridprng: bad pool state magic")
	}
	rest := data[len(poolMagic):]
	version := rest[0]
	if version != 1 && version != poolVersion {
		return fmt.Errorf("hybridprng: unsupported pool state version %d", version)
	}
	shards := int(binary.LittleEndian.Uint32(rest[1:]))
	bufWords := int(binary.LittleEndian.Uint32(rest[5:]))
	tickets := binary.LittleEndian.Uint64(rest[9:])
	rest = rest[17:]
	if shards < 1 || shards > maxShards || shards&(shards-1) != 0 {
		return fmt.Errorf("hybridprng: shard count %d is not a power of two in [1, %d]", shards, maxShards)
	}
	if bufWords < 1 || bufWords > maxShardBuffer {
		return fmt.Errorf("hybridprng: shard buffer %d outside [1, %d]", bufWords, maxShardBuffer)
	}
	now := time.Now //lint:wallclock default when the restored Pool has no injected clock yet
	if p.now != nil {
		now = p.now
	}
	pol := RecoveryPolicy{}
	var tripEvents, recoveries uint64
	if version == poolVersion {
		const polLen = 1 + 8 + 8 + 8 + 8 + 4 + 4 + 8 + 8
		if len(rest) < polLen {
			return fmt.Errorf("hybridprng: pool policy truncated")
		}
		pol.Disabled = rest[0] != 0
		pol.QuarantineBase = time.Duration(binary.LittleEndian.Uint64(rest[1:]))
		pol.BackoffFactor = math.Float64frombits(binary.LittleEndian.Uint64(rest[9:]))
		pol.QuarantineMax = time.Duration(binary.LittleEndian.Uint64(rest[17:]))
		pol.JitterFrac = math.Float64frombits(binary.LittleEndian.Uint64(rest[25:]))
		pol.ProbationWords = int(binary.LittleEndian.Uint32(rest[33:]))
		pol.MaxTrips = int(binary.LittleEndian.Uint32(rest[37:]))
		tripEvents = binary.LittleEndian.Uint64(rest[41:])
		recoveries = binary.LittleEndian.Uint64(rest[49:])
		rest = rest[polLen:]
		if math.IsNaN(pol.BackoffFactor) || math.IsNaN(pol.JitterFrac) {
			return fmt.Errorf("hybridprng: pool policy carries NaN")
		}
		if err := pol.validate(); err != nil {
			return err
		}
	}
	restored := &Pool{
		shards: make([]*poolShard, shards),
		mask:   uint64(shards - 1),
		policy: pol.withDefaults(),
	}
	for i := range restored.shards {
		blob, r, err := takePrefixed(rest, fmt.Sprintf("shard %d state", i))
		if err != nil {
			return err
		}
		rest = r
		if restored.shards[i], err = unmarshalShard(blob, bufWords, version, now()); err != nil {
			return fmt.Errorf("hybridprng: shard %d: %w", i, err)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("hybridprng: %d trailing bytes after pool state", len(rest))
	}
	p.shards, p.mask, p.policy = restored.shards, restored.mask, restored.policy
	if p.now == nil {
		p.now = time.Now //lint:wallclock default when the blob's producer used no injected clock; WithClock still overrides
	}
	for i, s := range p.shards {
		s.pool, s.index = p, i
		if version == 1 || s.reseedBase == 0 {
			// v1 blobs predate deterministic reseeding; derive a stable
			// fallback from the shard index.
			s.reseedBase = reseedBase(0, i)
		}
	}
	p.tickets.Store(tickets)
	p.tripEvents.Store(tripEvents)
	p.recoveries.Store(recoveries)
	return nil
}
