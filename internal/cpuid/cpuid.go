// Package cpuid holds the one CPU-feature probe the vector kernels
// read: internal/core's round kernel, internal/baselines' glibc feed
// and internal/bitsource's health-test screen each run their AVX2 path
// only when AVX2 is true. Builds tagged purego, and other
// architectures, define no probe; those packages then keep their Go
// loops.
package cpuid
