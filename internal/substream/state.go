package substream

import (
	"encoding/binary"
	"fmt"
	"math"

	hybridprng "repro"
	"repro/internal/blob"
)

// Registry state blob, "hsubreg" v1:
//
//	magic "hsubreg" | u16 version
//	u64 rootSeed | u32-len feed name | u32 walkLen | u32 initWalkLen
//	u64 float64bits(hMin) | u32 nTenants
//	per tenant (sorted by key):
//	  u32-len key | u32-len generator blob ("hprng" v2)
//	  u64 draws | u64 bytes | u64 sheds | u64 float64bits(tokens)
//
// Everything a tenant's stream needs to resume bitwise — the exact
// walk and feed state via the nested generator blob — plus its
// meters and bucket level, so a kill/restart or a drain handover is
// invisible to both the stream and the accounting. The runtime knobs
// (resident cap, rate, clock) are deliberately absent: they belong
// to the node serving the streams, not to the streams themselves.

const (
	regMagic   = "hsubreg"
	regVersion = 1
)

// MarshalBinary checkpoints every tenant — resident generators are
// marshalled in place (under their stream lock, so concurrent draws
// serialise cleanly), parked tenants contribute their stored blob.
func (r *Registry) MarshalBinary() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	le := binary.LittleEndian
	out := le.AppendUint16([]byte(regMagic), regVersion)
	out = le.AppendUint64(out, r.cfg.RootSeed)
	out = blob.AppendBytes32(out, r.cfg.Feed)
	out = le.AppendUint32(out, uint32(r.cfg.WalkLen))
	out = le.AppendUint32(out, uint32(r.cfg.InitWalkLen))
	out = le.AppendUint64(out, math.Float64bits(r.cfg.HealthHMin))
	keys := r.sortedKeysLocked()
	out = le.AppendUint32(out, uint32(len(keys)))
	for _, k := range keys {
		var p parked
		if t, ok := r.resident[k]; ok {
			t.mu.Lock()
			gBlob, err := t.gen.MarshalBinary()
			tokens := t.tokens
			t.mu.Unlock()
			if err != nil {
				return nil, fmt.Errorf("substream: marshalling tenant %q: %w", k, err)
			}
			p = parked{
				blob:   gBlob,
				draws:  t.draws.Load(),
				bytes:  t.bytes.Load(),
				sheds:  t.sheds.Load(),
				tokens: tokens,
			}
		} else {
			p = *r.parked[k]
		}
		out = blob.AppendBytes32(blob.AppendBytes32(out, k), p.blob)
		out = le.AppendUint64(out, p.draws)
		out = le.AppendUint64(out, p.bytes)
		out = le.AppendUint64(out, p.sheds)
		out = le.AppendUint64(out, math.Float64bits(p.tokens))
	}
	return out, nil
}

// UnmarshalBinary replaces the registry's tenant population with the
// blob's. Every restored tenant starts parked — the generator blob
// is validated but the walker is rebuilt lazily on the tenant's
// first draw, so restoring a million-tenant registry costs no init
// walks up front (the paper's on-demand property, preserved across
// restarts). Derivation parameters are taken from the blob; the
// runtime knobs configured at New/Restore time are kept.
func (r *Registry) UnmarshalBinary(data []byte) error {
	c := blob.NewReader(data, "substream: registry state")
	if !c.Magic(regMagic) {
		return fmt.Errorf("substream: bad registry magic")
	}
	if v := c.Uint16(); c.Err() == nil && v != regVersion {
		return fmt.Errorf("substream: unsupported registry state version %d", v)
	}
	rootSeed, feed := c.Uint64(), string(c.Bytes32())
	walkLen, initWalkLen := c.Uint32(), c.Uint32()
	hMin, n := math.Float64frombits(c.Uint64()), c.Uint32()
	if err := c.Err(); err != nil {
		return err
	}
	switch feed {
	case hybridprng.FeedGlibc, hybridprng.FeedANSIC, hybridprng.FeedSplitMix:
	default:
		return fmt.Errorf("substream: state blob names unknown feed %q", feed)
	}
	if walkLen > hybridprng.MaxWalkLen || initWalkLen > hybridprng.MaxWalkLen {
		return fmt.Errorf("substream: state blob walk length %d or init walk length %d above %d", walkLen, initWalkLen, hybridprng.MaxWalkLen)
	}
	// The maps grow as tenants decode: n comes from the blob, and a
	// forged count must not size an allocation.
	parkedSet := make(map[string]*parked)
	seeds := make(map[uint64]string)
	for i := uint32(0); i < n; i++ {
		key := string(c.Bytes32())
		p := &parked{
			blob:  append([]byte{}, c.Bytes32()...),
			draws: c.Uint64(),
			bytes: c.Uint64(),
			sheds: c.Uint64(),
		}
		p.tokens = math.Float64frombits(c.Uint64())
		if err := c.Err(); err != nil {
			return err
		}
		canon, err := Canonical(key)
		if err != nil || canon != key {
			return fmt.Errorf("substream: state blob holds non-canonical key %q", key)
		}
		if err := new(hybridprng.Generator).UnmarshalBinary(p.blob); err != nil {
			return fmt.Errorf("substream: tenant %q generator blob: %w", key, err)
		}
		if _, dup := parkedSet[key]; dup {
			return fmt.Errorf("substream: state blob repeats tenant %q", key)
		}
		seed := DeriveSeed(rootSeed, key)
		if prev, taken := seeds[seed]; taken {
			return &CollisionError{Key: key, Existing: prev, Seed: seed}
		}
		parkedSet[key] = p
		seeds[seed] = key
	}
	if err := c.Done(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfg.RootSeed = rootSeed
	r.cfg.Feed = feed
	r.cfg.WalkLen = int(walkLen)
	r.cfg.InitWalkLen = int(initWalkLen)
	r.cfg.HealthHMin = hMin
	r.resident = make(map[string]*tenant)
	r.lru.Init()
	r.parked = parkedSet
	r.seeds = seeds
	return nil
}
