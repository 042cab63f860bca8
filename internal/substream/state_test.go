package substream

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	hybridprng "repro"
	"repro/internal/bitsource"
	"repro/internal/blob"
)

// huge is a u32 length at or above 2^31: converted with int() on a
// 32-bit host it turns negative and passes a signed bounds check.
var huge = []byte{0xF0, 0xFF, 0xFF, 0xFF}

// regBlob builds a registry header for the glibc feed claiming n
// tenants, followed by raw bytes, so tests can forge what follows.
func regBlob(n uint32, parts ...[]byte) []byte {
	out := binary.LittleEndian.AppendUint16([]byte(regMagic), regVersion)
	out = binary.LittleEndian.AppendUint64(out, 1)
	out = blob.AppendBytes32(out, hybridprng.FeedGlibc)
	out = binary.LittleEndian.AppendUint32(out, 0)
	out = binary.LittleEndian.AppendUint32(out, 0)
	out = binary.LittleEndian.AppendUint64(out, 0)
	out = binary.LittleEndian.AppendUint32(out, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// healthBlob is an empty glibc registry blob claiming min-entropy
// hMin per feed byte: the header's last u64, ahead of the u32 tenant
// count.
func healthBlob(hMin float64) []byte {
	data := regBlob(0)
	binary.LittleEndian.PutUint64(data[len(data)-12:], math.Float64bits(hMin))
	return data
}

// forgedRegistryBlobs are the hostile blobs the decoder must reject
// cheaply: each length field set to 0xFFFFFFF0 over a 3-byte body, and
// a bare 46-byte header claiming 2^32−1 tenants.
func forgedRegistryBlobs() map[string][]byte {
	feed := binary.LittleEndian.AppendUint16([]byte(regMagic), regVersion)
	feed = binary.LittleEndian.AppendUint64(feed, 1)
	return map[string][]byte{
		"feed name":      append(append(feed, huge...), 1, 2, 3),
		"tenant key":     regBlob(1, huge, []byte{1, 2, 3}),
		"generator blob": regBlob(1, []byte{1, 0, 0, 0, 'a'}, huge, []byte{1, 2, 3}),
		"tenant count":   regBlob(math.MaxUint32),
	}
}

// TestRegistryStateRejectsHugeLengths feeds each u32 length field a
// value at or above 2^31. The registry decoder must report truncation
// instead of panicking when slicing (GOARCH=386 runs this test
// natively on an x86-64 host).
func TestRegistryStateRejectsHugeLengths(t *testing.T) {
	for name, data := range forgedRegistryBlobs() {
		if _, err := Restore(data, Config{}); err == nil {
			t.Errorf("%s: accepted a 0xFFFFFFF0-byte length", name)
		}
	}
}

// TestRegistryRefusesLongWalks: the generator refuses a walk length or
// init walk length above 2^20, so a registry that took one would start
// and then fail every tenant's first draw. New and Restore must refuse
// it up front, and still take the bound itself.
func TestRegistryRefusesLongWalks(t *testing.T) {
	const bound = 1 << 20
	walkLenAt := len(regMagic) + 2 + 8 + 4 + len(hybridprng.FeedGlibc)
	for _, c := range []struct {
		name string
		cfg  Config
		at   int // offset of the length in a registry blob
	}{
		{"walk", Config{WalkLen: bound + 1}, walkLenAt},
		{"init walk", Config{InitWalkLen: bound + 1}, walkLenAt + 4},
	} {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("New accepted %s length %d", c.name, bound+1)
		}
		data := regBlob(0)
		binary.LittleEndian.PutUint32(data[c.at:], bound+1)
		if _, err := Restore(data, Config{}); err == nil {
			t.Errorf("Restore accepted a blob whose %s length is %d", c.name, bound+1)
		}
		binary.LittleEndian.PutUint32(data[c.at:], bound)
		if _, err := Restore(data, Config{}); err != nil {
			t.Errorf("Restore refused a blob whose %s length is the bound: %v", c.name, err)
		}
	}
	if _, err := New(Config{WalkLen: bound, InitWalkLen: bound}); err != nil {
		t.Errorf("New refused walk lengths at the bound: %v", err)
	}
}

// TestRegistryRefusesBadHealthClaims: the generator refuses a claimed
// min-entropy above 8 or below bitsource.HMinFloor, so a registry that
// took 9, +Inf or 1e-5 would start and then fail a tenant's draw. New
// and Restore must refuse them up front, and still take 0 (monitoring
// off), the floor and 8.
func TestRegistryRefusesBadHealthClaims(t *testing.T) {
	for _, c := range []struct {
		hMin float64
		ok   bool
	}{
		{9, false}, {math.Inf(1), false}, {1e-5, false}, {math.Nextafter(bitsource.HMinFloor, 0), false},
		{0, true}, {bitsource.HMinFloor, true}, {8, true},
	} {
		if _, err := New(Config{HealthHMin: c.hMin}); (err == nil) != c.ok {
			t.Errorf("New with HealthHMin %g: err = %v", c.hMin, err)
		}
		if _, err := Restore(healthBlob(c.hMin), Config{}); (err == nil) != c.ok {
			t.Errorf("Restore of a blob claiming hMin %g: err = %v", c.hMin, err)
		}
	}
}

// TestRegistryHealthFloor: a tenant claiming bitsource.HMinFloor, the
// weakest claim whose monitor state decodes, is parked, unparked and
// restored bitwise. Below the floor a tenant's monitor wrote an RCT
// cutoff its decoder refused, so the first draw after an eviction
// failed.
func TestRegistryHealthFloor(t *testing.T) {
	r := mustRegistry(t, Config{RootSeed: 5, MaxResident: 1, HealthHMin: bitsource.HMinFloor})
	want := control(t, 5, "a", 24)
	got := drawWords(t, r, "a", 8)
	drawWords(t, r, "b", 8) // parks a
	got = append(got, drawWords(t, r, "a", 8)...)
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Restore(data, Config{MaxResident: 1})
	if err != nil {
		t.Fatal(err)
	}
	drawWords(t, r2, "b", 8) // parks a again
	if got = append(got, drawWords(t, r2, "a", 8)...); !equalWords(got, want) {
		t.Fatalf("tenant at the floor drew %x, want %x", got, want)
	}
	if s := r2.Stats(); s.Evictions == 0 {
		t.Fatalf("restored registry evicted nothing: %+v", s)
	}
}

// TestRegistryStateHugeTenantCountAllocatesLittle: a 46-byte blob
// claiming 2^32−1 tenants must fail on its first missing tenant, not
// size the tenant maps from the forged count first.
func TestRegistryStateHugeTenantCountAllocatesLittle(t *testing.T) {
	data := forgedRegistryBlobs()["tenant count"]
	if len(data) != 46 {
		t.Fatalf("forged blob is %d bytes, want 46", len(data))
	}
	r, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = r.UnmarshalBinary(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a blob claiming 2^32-1 tenants with none present")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<10 {
		t.Errorf("rejecting the forged tenant count allocated %d bytes", got)
	}
}
