package hybridprng_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	hybridprng "repro"
	"repro/internal/baselines"
	"repro/internal/bitsource"
	"repro/internal/server"
	"repro/internal/substream"
)

// stateGolden pins the SHA-256 of every checkpoint blob kind as its
// encoder writes it today. Round-trip tests pass a format changed on
// both sides at once; this one does not. Each blob is built from fixed
// seeds, single-goroutine draws and injected clocks, so its bytes are
// a pure function of this file. A change here breaks every persisted
// snapshot, drain hand-over and parked tenant: bump the blob's version
// and keep the old decoder instead of re-pinning.
var stateGolden = map[string]string{
	"generator":           "72f5872643214d4f8339b8c19bdf8f25df5fad0b52d41c2b26b2915629eae404",
	"generator-monitored": "5aa67bfd633dc275f4c5d9c78618adfadd8c87c7f9fb3aaf34f79d1fcf40a515",
	"monitor-tripped":     "3ddb7f725ef879efabaa7b9587ac5fa262898b3f769616741cea4f8f70c1f050",
	"parallel":            "d34cf3975f7e71ea4add2c096eeecc46ba9a017f2d82d9c21615068141f79d50",
	"pool":                "0b97729984f36ed9596147a8ed3b9f7ad07158811d82057f0c43040741a986b3",
	"registry":            "98caf992a52924f98b3fb35047586cc832fe9a899fdd227ea5d1f700196f36ae",
	"node":                "a89159ff9caa8e80a5a7ee06441b5d4cf76605b5c5e9bb8555b8a5943e5e7a33",
}

// goldenBlobs builds one blob of each kind: the SP 800-90B monitor's
// own blob is pinned tripped, the case that carries its failure text.
func goldenBlobs(t *testing.T) map[string][]byte {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	blobs := make(map[string][]byte)
	marshal := func(name string, m interface{ MarshalBinary() ([]byte, error) }) {
		t.Helper()
		b, err := m.MarshalBinary()
		must(err)
		blobs[name] = b
	}

	g, err := hybridprng.New(hybridprng.WithSeed(12345), hybridprng.WithFeed(hybridprng.FeedSplitMix))
	must(err)
	g.Read(make([]byte, 13)) // leaves a partial bit-reader word
	marshal("generator", g)

	gm, err := hybridprng.New(hybridprng.WithSeed(12345), hybridprng.WithHealthMonitoring(4))
	must(err)
	for i := 0; i < 9; i++ {
		gm.Uint64()
	}
	marshal("generator-monitored", gm)

	mon, err := bitsource.NewMonitor(baselines.NewSplitMix64(5), 2)
	must(err)
	for i := 0; i < 100; i++ {
		mon.Uint64()
	}
	mon.ForceTrip("golden detail")
	marshal("monitor-tripped", mon)

	par, err := hybridprng.NewParallel(3, hybridprng.WithSeed(7), hybridprng.WithFeed(hybridprng.FeedANSIC))
	must(err)
	for i := 0; i < 3; i++ {
		par.Worker(i).Read(make([]byte, 8*i+5))
	}
	marshal("parallel", par)

	// Shard 2 tripped and reseeded into probation, shard 1 tripped and
	// quarantined, shards 0 and 3 healthy with ring residue.
	clock := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return clock }
	pool, err := hybridprng.NewPool(hybridprng.WithSeed(9), hybridprng.WithShards(4),
		hybridprng.WithShardBuffer(16), hybridprng.WithHealthMonitoring(4),
		hybridprng.WithRecovery(hybridprng.RecoveryPolicy{QuarantineBase: time.Second, ProbationWords: 1 << 16}),
		hybridprng.WithClock(now))
	must(err)
	for i := 0; i < 11; i++ {
		_, err := pool.Uint64()
		must(err)
	}
	must(pool.InjectFault(2))
	clock = clock.Add(time.Hour)
	must(pool.Fill(make([]uint64, 40)))
	must(pool.InjectFault(1))
	must(pool.Fill(make([]uint64, 3)))
	if st := pool.Stats(); st.Healthy != 2 || st.Quarantined != 1 || st.Probation != 1 {
		t.Fatalf("golden pool is not in the pinned mix of states: %+v", st)
	}
	marshal("pool", pool)

	// MaxResident 2 over three keys parks "a"; "b" and "c" stay resident.
	reg, err := substream.New(substream.Config{RootSeed: 42, HealthHMin: 4, MaxResident: 2,
		RatePerSec: 1000, Burst: 4096, Now: now})
	must(err)
	for i, k := range []string{"a", "b", "c"} {
		must(reg.Fill(k, make([]uint64, i+2)))
		must(reg.FillBytes(k, make([]byte, 3*i+1)))
	}
	if st := reg.Stats(); st.Resident != 2 || st.Tenants != 3 {
		t.Fatalf("golden registry is not in the pinned mix of tenants: %+v", st)
	}
	marshal("registry", reg)

	blobs["node"] = server.EncodeNodeState(blobs["pool"], blobs["registry"])
	return blobs
}

// TestStateBlobGolden checks every blob kind against its pinned hash
// and that each decodes again.
func TestStateBlobGolden(t *testing.T) {
	blobs := goldenBlobs(t)
	for name, want := range stateGolden {
		sum := sha256.Sum256(blobs[name])
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s blob: sha256 %s, pinned %s", name, got, want)
		}
	}
	for name, u := range map[string]interface{ UnmarshalBinary([]byte) error }{
		"generator":           new(hybridprng.Generator),
		"generator-monitored": new(hybridprng.Generator),
		"parallel":            new(hybridprng.Parallel),
		"pool":                new(hybridprng.Pool),
	} {
		if err := u.UnmarshalBinary(blobs[name]); err != nil {
			t.Errorf("%s blob does not decode: %v", name, err)
		}
	}
	if m, err := bitsource.RestoreMonitor(baselines.NewSplitMix64(5), blobs["monitor-tripped"]); err != nil || !m.Tripped() {
		t.Errorf("tripped monitor blob does not decode tripped: %v", err)
	}
	if _, err := substream.Restore(blobs["registry"], substream.Config{}); err != nil {
		t.Errorf("registry blob does not decode: %v", err)
	}
	if p, r, err := server.DecodeNodeState(blobs["node"]); err != nil || len(p) != len(blobs["pool"]) || len(r) != len(blobs["registry"]) {
		t.Errorf("node blob does not split back into its parts: %v", err)
	}
}
