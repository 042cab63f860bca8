//go:build amd64 && !purego

package cpuid

// avx2 reports whether the CPU and OS support AVX2 (including
// OS-saved YMM state), via raw CPUID/XGETBV in cpuid_amd64.s.
func avx2() bool

// AVX2 is the probe's answer, read once at startup.
var AVX2 = avx2()
