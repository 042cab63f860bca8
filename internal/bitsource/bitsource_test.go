package bitsource

import "testing"

func TestCryptoSeedVaries(t *testing.T) {
	a, b := CryptoSeed(), CryptoSeed()
	if a == b {
		t.Error("two crypto seeds identical — entropy pool broken?")
	}
}

func TestConvenienceConstructors(t *testing.T) {
	// The glibc word stream packs random() outputs with the first
	// 31-bit value in the top bits: srandom(1) starts 1804289383.
	if got := Glibc(1).Bits(31); got != 1804289383 {
		t.Errorf("glibc feed first 31 bits = %d, want 1804289383", got)
	}
	a, b := Glibc(7), Glibc(7)
	for i := 0; i < 100; i++ {
		if a.Bits(13) != b.Bits(13) {
			t.Fatal("glibc feed not deterministic")
		}
	}
	c, d := ANSIC(7), ANSIC(7)
	for i := 0; i < 100; i++ {
		if c.Bits(9) != d.Bits(9) {
			t.Fatal("ansic feed not deterministic")
		}
	}
	e, f := SplitMix(7), SplitMix(7)
	for i := 0; i < 100; i++ {
		if e.Bits(17) != f.Bits(17) {
			t.Fatal("splitmix feed not deterministic")
		}
	}
}
