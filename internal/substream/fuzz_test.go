package substream

import (
	"errors"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/bitsource"
)

// FuzzCanonical is the key-hygiene contract under hostile input:
// Canonical never panics, rejections are always typed *KeyError,
// accepted keys are canonical fixed points (so two spellings that
// canonicalize equal can never derive two streams), and every
// accepted key satisfies the documented shape (non-empty, bounded,
// valid UTF-8, control-free).
func FuzzCanonical(f *testing.F) {
	f.Add("alice")
	f.Add("  alice\t")
	f.Add("")
	f.Add("   ")
	f.Add("user-0001")
	f.Add("tenant/eu-west-1")
	f.Add("τ-κλειδί")
	f.Add("bad\x00key")
	f.Add("\x7f")
	f.Add(string([]byte{0xff, 0xfe, 0xfd}))
	f.Add(strings.Repeat("k", MaxKeyBytes))
	f.Add(strings.Repeat("k", MaxKeyBytes+1))
	f.Add(" \t mixed \x01 junk \t ")
	f.Fuzz(func(t *testing.T, key string) {
		canon, err := Canonical(key)
		if err != nil {
			var ke *KeyError
			if !errors.As(err, &ke) {
				t.Fatalf("Canonical(%q) returned untyped error %v", key, err)
			}
			if canon != "" {
				t.Fatalf("Canonical(%q) returned %q alongside an error", key, canon)
			}
			return
		}
		if canon == "" || len(canon) > MaxKeyBytes {
			t.Fatalf("Canonical(%q) accepted out-of-shape key %q", key, canon)
		}
		if !utf8.ValidString(canon) {
			t.Fatalf("Canonical(%q) accepted invalid UTF-8 %q", key, canon)
		}
		for _, r := range canon {
			if r < 0x20 || r == 0x7f {
				t.Fatalf("Canonical(%q) accepted control character %q", key, r)
			}
		}
		// Idempotence: the canonical form is its own canonical form,
		// so equal canonical keys always share one derived stream.
		again, err := Canonical(canon)
		if err != nil || again != canon {
			t.Fatalf("Canonical not idempotent: %q -> %q -> (%q, %v)", key, canon, again, err)
		}
		// And the derivation is a pure function of the canonical form.
		if DeriveSeed(1, canon) != DeriveSeed(1, again) {
			t.Fatalf("DeriveSeed unstable for %q", canon)
		}
	})
}

// FuzzRegistryState feeds the registry decoder arbitrary bytes plus
// mutations of a real blob: it must error or round-trip, never
// panic, mirroring the root package's state fuzzer. A registry it
// accepts must also serve a tenant the blob does not hold.
func FuzzRegistryState(f *testing.F) {
	r, err := New(Config{RootSeed: 42, MaxResident: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := r.Fill(k, make([]uint64, 3)); err != nil {
			f.Fatal(err)
		}
	}
	blob, err := r.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte{})
	f.Add([]byte(regMagic))
	f.Add(blob[:len(blob)/2])
	f.Add(append([]byte{}, append(blob, 0)...))
	for _, forged := range forgedRegistryBlobs() {
		f.Add(forged)
	}
	f.Add(healthBlob(9))
	f.Add(healthBlob(8))
	f.Fuzz(func(t *testing.T, data []byte) {
		r2, err := Restore(data, Config{})
		if err != nil {
			return
		}
		// A blob the decoder accepts must marshal back and be
		// accepted again: decode(encode(decode(x))) cannot fail.
		blob2, err := r2.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal of accepted blob failed: %v", err)
		}
		if _, err := Restore(blob2, Config{}); err != nil {
			t.Fatalf("re-restore of accepted blob failed: %v", err)
		}
		// The derivation the blob names builds every new tenant's
		// generator; only the health monitor, doing its job, may
		// refuse the first draw.
		r2.mu.Lock()
		key := "fresh"
		for r2.tenants[key] != nil {
			key += "+"
		}
		r2.mu.Unlock()
		var he *bitsource.HealthError
		if _, err := r2.Uint64(key); err != nil && !errors.As(err, &he) {
			t.Fatalf("accepted blob cannot serve new tenant %q: %v", key, err)
		}
	})
}
