package substream

import (
	"fmt"
	"testing"
)

// BenchmarkRegistryDraw times one resident tenant's draws as the keyed
// routes make them — /v1/stream/{key}/u64?n=k through Fill and
// /v1/stream/{key}/bytes through FillBytes — from one word up to the
// 4 KiB draw of the tenants workload, with the health monitor on as in
// randd. Draws under 16 words walk per field, longer ones through a
// bin (core's binMinFill).
func BenchmarkRegistryDraw(b *testing.B) {
	r, err := New(Config{RootSeed: 1, HealthHMin: 4})
	if err != nil {
		b.Fatal(err)
	}
	const key = "bench-tenant"
	for _, n := range []int{1, 8, 16, 64} {
		b.Run(fmt.Sprintf("u64-%d", n), func(b *testing.B) {
			dst := make([]uint64, n)
			b.SetBytes(int64(8 * n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.Fill(key, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{8, 128, 4096} {
		b.Run(fmt.Sprintf("bytes-%d", n), func(b *testing.B) {
			buf := make([]byte, n)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.FillBytes(key, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
