package hybridprng

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/baselines"
	"repro/internal/bitsource"
	"repro/internal/blob"
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
	if len(feedState) > 0xFFFF || len(monState) > 0xFFFF {
		return nil, fmt.Errorf("hybridprng: feed or monitor state too large (%d, %d bytes)", len(feedState), len(monState))
	}
	cfg := w.Config()
	word, left := br.State()
	le := binary.LittleEndian
	const fixedLen = len(stateMagic) + 2 + 4 + 4 + 8 + 8 + 8 + 1 + 2 + 2
	out := append(append(make([]byte, 0, fixedLen+len(feedState)+len(monState)), stateMagic...), stateVersion, tag)
	out = le.AppendUint32(out, uint32(cfg.WalkLen))
	out = le.AppendUint32(out, uint32(cfg.InitWalkLen))
	out = le.AppendUint64(out, w.Position().ID())
	out = le.AppendUint64(out, w.Generated())
	out = le.AppendUint64(out, word)
	out = append(out, byte(left))
	out = blob.AppendBytes16(out, feedState)
	return blob.AppendBytes16(out, monState), nil
}

// unmarshalWalker decodes a blob written by marshalWalker (or by the
// v1 encoder). A monitor the blob carries is restored between the
// feed and the walker's bit reader.
func unmarshalWalker(data []byte) (*core.Walker, error) {
	r := blob.NewReader(data, "hybridprng: state")
	if !r.Magic(stateMagic) {
		return nil, fmt.Errorf("hybridprng: bad state magic")
	}
	version, tag := r.Byte(), r.Byte()
	if r.Err() == nil && version != 1 && version != stateVersion {
		return nil, fmt.Errorf("hybridprng: unsupported state version %d", version)
	}
	walkLen, initWalkLen := r.Uint32(), r.Uint32()
	pos, generated, brWord := r.Uint64(), r.Uint64(), r.Uint64()
	brLeft, feedState := r.Byte(), r.Bytes16()
	var monState []byte
	if version == stateVersion {
		monState = r.Bytes16()
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if brLeft > 64 {
		return nil, fmt.Errorf("hybridprng: bit buffer count %d out of range", brLeft)
	}
	if walkLen < 1 || walkLen > MaxWalkLen {
		return nil, fmt.Errorf("hybridprng: walk length %d outside [1, %d]", walkLen, MaxWalkLen)
	}
	if initWalkLen > MaxWalkLen {
		return nil, fmt.Errorf("hybridprng: init walk length %d outside [0, %d]", initWalkLen, MaxWalkLen)
	}

	src, fu, err := feedFromTag(tag)
	if err != nil {
		return nil, err
	}
	if err := fu.UnmarshalBinary(feedState); err != nil {
		return nil, err
	}
	if len(monState) > 0 {
		if src, err = bitsource.RestoreMonitor(src, monState); err != nil {
			return nil, err
		}
	}
	br := rng.NewBitReader(src)
	br.SetState(brWord, uint(brLeft))
	return core.RestoreWalker(br, core.Config{
		WalkLen:     int(walkLen),
		InitWalkLen: int(initWalkLen),
	}, expander.VertexFromID(pos), generated)
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
	w, err := unmarshalWalker(data)
	if err != nil {
		return err
	}
	g.w = w
	return nil
}

// MarshalBinary checkpoints every worker of the pool: the container
// is the magic, a version, the worker count and one length-prefixed
// per-walker state per worker. Not safe to call while other
// goroutines draw from the workers.
func (p *Parallel) MarshalBinary() ([]byte, error) {
	out := append([]byte(parMagic), parVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(p.walkers)))
	for i, w := range p.walkers {
		wBlob, err := marshalWalker(w)
		if err != nil {
			return nil, fmt.Errorf("hybridprng: worker %d: %w", i, err)
		}
		out = blob.AppendBytes32(out, wBlob)
	}
	return out, nil
}

// UnmarshalBinary restores a Parallel written by MarshalBinary,
// replacing p's state entirely; every worker resumes its exact
// stream, monitors included.
func (p *Parallel) UnmarshalBinary(data []byte) error {
	r := blob.NewReader(data, "hybridprng: parallel state")
	if !r.Magic(parMagic) {
		return fmt.Errorf("hybridprng: bad parallel state magic")
	}
	version, workers := r.Byte(), r.Uint32()
	if err := r.Err(); err != nil {
		return err
	}
	if version != parVersion {
		return fmt.Errorf("hybridprng: unsupported parallel state version %d", version)
	}
	if workers < 1 || workers > maxShards {
		return fmt.Errorf("hybridprng: worker count %d outside [1, %d]", workers, maxShards)
	}
	walkers := make([]*core.Walker, workers)
	for i := range walkers {
		wBlob := r.Bytes32()
		if err := r.Err(); err != nil {
			return err
		}
		var err error
		if walkers[i], err = unmarshalWalker(wBlob); err != nil {
			return fmt.Errorf("hybridprng: worker %d: %w", i, err)
		}
	}
	if err := r.Done(); err != nil {
		return err
	}
	p.walkers = walkers
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
	le := binary.LittleEndian
	out := append([]byte(poolMagic), poolVersion)
	out = le.AppendUint32(out, uint32(len(p.shards)))
	out = le.AppendUint32(out, uint32(len(p.shards[0].buf)))
	out = le.AppendUint64(out, p.tickets.Load())
	pol := p.policy
	out = append(out, 0) // retire-on-first-trip flag: now MaxTrips 1, see UnmarshalBinary
	out = le.AppendUint64(out, uint64(pol.QuarantineBase))
	out = le.AppendUint64(out, math.Float64bits(pol.BackoffFactor))
	out = le.AppendUint64(out, uint64(pol.QuarantineMax))
	out = le.AppendUint64(out, math.Float64bits(pol.JitterFrac))
	out = le.AppendUint32(out, uint32(pol.ProbationWords))
	out = le.AppendUint32(out, uint32(pol.MaxTrips))
	out = le.AppendUint64(out, p.tripEvents.Load())
	out = le.AppendUint64(out, p.recoveries.Load())
	now := p.now()
	for i, s := range p.shards {
		sBlob, err := s.marshalBinary(now)
		if err != nil {
			return nil, fmt.Errorf("hybridprng: shard %d: %w", i, err)
		}
		out = blob.AppendBytes32(out, sBlob)
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
	le := binary.LittleEndian
	state := shardState(s.state.Load())
	residue := s.buf[s.idx.Load():]
	if state != shardHealthy {
		residue = nil
	}
	// 64 bytes of slack hold the counters, the recovery state and a short failure record.
	out := blob.AppendBytes32(make([]byte, 0, 4+len(wBlob)+4+8*len(residue)+64), wBlob)
	out = le.AppendUint32(out, uint32(len(residue)))
	for _, v := range residue {
		out = le.AppendUint64(out, v)
	}
	out = le.AppendUint64(out, s.draws.Load())
	out = le.AppendUint64(out, s.refills.Load())
	out = append(out, byte(state))
	out = le.AppendUint32(out, s.trips.Load())
	out = le.AppendUint64(out, s.reseedBase)
	out = le.AppendUint64(out, uint64(s.retryIn(now)))
	probLeft := 0
	if state == shardProbation {
		probLeft = s.probLeft
	}
	out = le.AppendUint32(out, uint32(probLeft))
	he := s.err.Load()
	failed := he != nil && state != shardHealthy
	out = blob.AppendBool(out, failed)
	if failed {
		if len(he.Test) > 0xFFFF || len(he.Detail) > 0xFFFF {
			return nil, fmt.Errorf("hybridprng: shard failure detail too long")
		}
		out = blob.AppendBytes16(blob.AppendBytes16(out, he.Test), he.Detail)
	}
	return out, nil
}

// unmarshalShard rebuilds one shard; bufWords is the ring capacity
// and version the container version from the pool header. now
// re-anchors a quarantined shard's remaining backoff.
func unmarshalShard(data []byte, bufWords int, version byte, now time.Time) (*poolShard, error) {
	r := blob.NewReader(data, "hybridprng: shard state")
	wBlob := r.Bytes32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	w, err := unmarshalWalker(wBlob)
	if err != nil {
		return nil, err
	}
	n := r.Uint32()
	if uint64(n) > uint64(bufWords) {
		return nil, fmt.Errorf("hybridprng: ring residue %d exceeds buffer %d", n, bufWords)
	}
	buf := make([]uint64, bufWords)
	idx := bufWords - int(n)
	for i := idx; i < bufWords; i++ {
		buf[i] = r.Uint64()
	}
	s := &poolShard{w: w, buf: buf}
	s.idx.Store(int64(idx))
	s.draws.Store(r.Uint64())
	s.refills.Store(r.Uint64())
	state, remaining, probLeft := shardHealthy, time.Duration(0), uint32(0)
	if version != 1 {
		state = shardState(r.Byte())
		s.trips.Store(r.Uint32())
		s.reseedBase = r.Uint64()
		remaining = time.Duration(r.Uint64())
		probLeft = r.Uint32()
	}
	var he *bitsource.HealthError
	if r.Bool() {
		test := string(r.Bytes16())
		he = &bitsource.HealthError{Test: test, Detail: string(r.Bytes16())}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if version == 1 && he != nil {
		// Legacy blob: a tripped shard was retired permanently, and
		// that is how it restores — a v1 snapshot must not resurrect a
		// feed that failed its health tests.
		state = shardRetired
	}
	if state > shardRetired {
		return nil, fmt.Errorf("hybridprng: unknown shard state %d", state)
	}
	if remaining < 0 || remaining > 1000*time.Hour {
		return nil, fmt.Errorf("hybridprng: shard backoff %v out of range", remaining)
	}
	if probLeft > maxShardBuffer {
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
		s.probLeft = int(probLeft)
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
// under; a v3 blob whose retire-on-first-trip flag is set restores
// with MaxTrips 1, which retires a shard on its first trip.
func (p *Pool) UnmarshalBinary(data []byte) error {
	r := blob.NewReader(data, "hybridprng: pool state")
	if !r.Magic(poolMagic) {
		return fmt.Errorf("hybridprng: bad pool state magic")
	}
	version := r.Byte()
	shards, bufWords, tickets := r.Uint32(), r.Uint32(), r.Uint64()
	if err := r.Err(); err != nil {
		return err
	}
	if version != 1 && version != poolVersion {
		return fmt.Errorf("hybridprng: unsupported pool state version %d", version)
	}
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
		retireFirst := r.Bool()
		pol.QuarantineBase = time.Duration(r.Uint64())
		pol.BackoffFactor = math.Float64frombits(r.Uint64())
		pol.QuarantineMax = time.Duration(r.Uint64())
		pol.JitterFrac = math.Float64frombits(r.Uint64())
		pol.ProbationWords, pol.MaxTrips = int(r.Uint32()), int(r.Uint32())
		tripEvents, recoveries = r.Uint64(), r.Uint64()
		if retireFirst {
			pol.MaxTrips = 1
		}
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
		sBlob := r.Bytes32()
		if err := r.Err(); err != nil {
			return err
		}
		var err error
		if restored.shards[i], err = unmarshalShard(sBlob, int(bufWords), version, now()); err != nil {
			return fmt.Errorf("hybridprng: shard %d: %w", i, err)
		}
	}
	if err := r.Done(); err != nil {
		return err
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
