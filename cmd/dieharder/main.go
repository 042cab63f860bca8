// Command dieharder runs the DIEHARD battery (internal/diehard)
// against named generators and prints the paper's Table II: tests
// passed out of 15 and the closing KS statistic D.
//
// Usage:
//
//	dieharder [-scale 1.0] [-seed 12345] [-gen name[,name...]] [-v]
//
// Generator names are those of internal/baselines plus
// "hybrid-prng" (the paper's generator, fed by glibc bits) and
// "hybrid-prng-ansic" (ablation: fed by the weaker ANSI C LCG).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/baselines"
	"repro/internal/bitsource"
	"repro/internal/core"
	"repro/internal/diehard"
	"repro/internal/rng"
)

// tableIIGenerators is the paper's Table II line-up. Its glibc row is
// glibc-rand32, rand() used the way applications use it: one 31-bit
// value per 32-bit word.
var tableIIGenerators = []string{"hybrid-prng", "md5-cudpp", "mt19937", "xorwow", "glibc-rand32"}

func newGenerator(name string, seed uint64) (rng.Source, error) {
	switch name {
	case "hybrid-prng":
		return core.NewWalker(bitsource.Glibc(uint32(seed)), core.Config{})
	case "hybrid-prng-ansic":
		return core.NewWalker(bitsource.ANSIC(uint32(seed)), core.Config{})
	case "hybrid-prng-short-walk":
		return core.NewWalker(bitsource.Glibc(uint32(seed)), core.Config{WalkLen: 4})
	default:
		return baselines.New(name, seed)
	}
}

func main() {
	scale := flag.Float64("scale", 1.0, "sample-size multiplier (1.0 = reduced classic sizes)")
	seed := flag.Uint64("seed", 20120521, "generator seed")
	gens := flag.String("gen", strings.Join(tableIIGenerators, ","), "comma-separated generator names")
	verbose := flag.Bool("v", false, "print every test's p-values")
	flag.Parse()

	fmt.Printf("DIEHARD battery (scale %.2f, pass band [0.01, 0.99])\n", *scale)
	fmt.Printf("%-24s %-12s %s\n", "Generator", "Passed", "KS-Test D")
	for _, name := range strings.Split(*gens, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		src, err := newGenerator(name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dieharder: %v\n", err)
			os.Exit(1)
		}
		out := diehard.RunBattery(name, src, diehard.Config{Scale: *scale})
		fmt.Printf("%-24s %2d/%-9d %.4f\n", name, out.Passed, out.Total, out.KS.D)
		if *verbose {
			for _, r := range out.Results {
				status := "pass"
				if !r.Passed(0.01, 0.99) {
					status = "FAIL"
				}
				fmt.Printf("    %-28s %s  p=%.6f  (all: %s)\n", r.Name, status, r.P(), fmtPs(r.PValues))
				if r.Err != nil {
					fmt.Printf("        error: %v\n", r.Err)
				}
			}
		}
	}
}

func fmtPs(ps []float64) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = fmt.Sprintf("%.4f", p)
	}
	return strings.Join(parts, " ")
}
