// Command prngbench regenerates the paper's generator-performance
// artefacts on the simulated platform (plus the real CPU-only
// measurement):
//
//	-table1   Table I: property matrix and speed ranking
//	-figure3  time to generate N numbers (hybrid vs MT vs CURAND)
//	-figure4  work-unit overlap and utilisation at block size 100
//	-figure5  time vs block size S
//	-figure6  CPU-only hybrid (real wall clock) vs serial glibc rand()
//
// With no flags it runs everything.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/hybrid"
)

func main() {
	t1 := flag.Bool("table1", false, "Table I property/speed matrix")
	f3 := flag.Bool("figure3", false, "Figure 3 size sweep")
	f4 := flag.Bool("figure4", false, "Figure 4 work units")
	f5 := flag.Bool("figure5", false, "Figure 5 block-size sweep")
	f6 := flag.Bool("figure6", false, "Figure 6 CPU-only comparison")
	n6 := flag.Int("figure6-n", 2_000_000, "numbers for the real Figure 6 run")
	flag.Parse()
	all := !*t1 && !*f3 && !*f4 && !*f5 && !*f6

	if *t1 || all {
		table1()
	}
	if *f3 || all {
		figure3()
	}
	if *f4 || all {
		figure4()
	}
	if *f5 || all {
		figure5()
	}
	if *f6 || all {
		figure6(*n6)
	}
}

func die(err error) {
	fmt.Fprintf(os.Stderr, "prngbench: %v\n", err)
	os.Exit(1)
}

// table1 reproduces Table I: qualitative properties plus a speed
// rank from the simulated platform at N = 100 M.
func table1() {
	fmt.Println("== Table I: comparison of properties ==")
	const n = 100_000_000
	time := func(f func(p *hybrid.Platform) (hybrid.Report, error)) float64 {
		p, err := hybrid.NewPlatform(hybrid.DefaultCostModel())
		if err != nil {
			die(err)
		}
		rep, err := f(p)
		if err != nil {
			die(err)
		}
		return rep.SimNs
	}
	hyb := time(func(p *hybrid.Platform) (hybrid.Report, error) { return p.GenerateHybrid(n, 100) })
	mt := time(func(p *hybrid.Platform) (hybrid.Report, error) { return p.GenerateMTBatch(n) })
	cu := time(func(p *hybrid.Platform) (hybrid.Report, error) { return p.GenerateCurandDevice(n) })
	// glibc rand() serial on the host model (three 31-bit calls per
	// 64-bit number, one core — rand() is not thread safe) and the
	// CUDPP MD5 generator (a device batch kernel slightly slower
	// than the SDK twister) are modelled from the same constants.
	glibc := float64(n) * 3 * 4 / 0.35 // ns: 3 calls × 4 B at 0.35 GB/s serial
	cudpp := mt * 1.05

	type row struct {
		name                          string
		onDemand, scalable, highSpeed string
		quality                       string
		simNs                         float64
	}
	rows := []row{
		{"glibc rand()", "yes", "no", "no", "low", glibc},
		{"CURAND (device)", "yes", "yes", "no", "high", cu},
		{"CUDPP (MD5)", "no", "limited", "no", "high", cudpp},
		{"M.Twister (SDK)", "no", "yes", "yes", "high", mt},
		{"Hybrid PRNG", "yes", "yes", "yes", "high", hyb},
	}
	// Rank by time (1 = fastest).
	fmt.Printf("%-18s %-10s %-10s %-11s %-9s %-12s %s\n",
		"PRNG", "On-Demand", "Scalable", "High Speed", "Quality", "Time(ms)", "Rank")
	for _, r := range rows {
		rank := 1
		for _, o := range rows {
			if o.simNs < r.simNs {
				rank++
			}
		}
		fmt.Printf("%-18s %-10s %-10s %-11s %-9s %-12.1f %d\n",
			r.name, r.onDemand, r.scalable, r.highSpeed, r.quality, r.simNs/1e6, rank)
	}
	fmt.Println()
}

func figure3() {
	fmt.Println("== Figure 3: time (ms) to generate N numbers, simulated platform ==")
	fmt.Printf("%-10s %-14s %-18s %-14s\n", "N (M)", "Hybrid", "Mersenne Twister", "CURAND")
	for _, n := range []int64{5, 10, 50, 100, 200, 500, 1000} {
		num := n * 1_000_000
		ph, _ := hybrid.NewPlatform(hybrid.DefaultCostModel())
		h, err := ph.GenerateHybrid(num, 100)
		if err != nil {
			die(err)
		}
		pm, _ := hybrid.NewPlatform(hybrid.DefaultCostModel())
		m, err := pm.GenerateMTBatch(num)
		if err != nil {
			die(err)
		}
		pc, _ := hybrid.NewPlatform(hybrid.DefaultCostModel())
		c, err := pc.GenerateCurandDevice(num)
		if err != nil {
			die(err)
		}
		fmt.Printf("%-10d %-14.1f %-18.1f %-14.1f\n", n, h.SimNs/1e6, m.SimNs/1e6, c.SimNs/1e6)
	}
	fmt.Println()
}

func figure4() {
	fmt.Println("== Figure 4: work-unit overlap at block size 100 ==")
	p, _ := hybrid.NewPlatform(hybrid.DefaultCostModel())
	rep, err := p.GenerateHybrid(5_000_000, 100)
	if err != nil {
		die(err)
	}
	fmt.Printf("FEED      %6.2f ns/number (CPU)\n", rep.FeedNsPerNumber)
	fmt.Printf("TRANSFER  %6.2f ns/number (PCIe)\n", rep.TransferNsPerNumber)
	fmt.Printf("GENERATE  %6.2f ns/number (GPU)\n", rep.GenNsPerNumber)
	fmt.Printf("CPU busy %.0f%%  GPU busy %.0f%% (GPU idle ≈ %.0f%%)  link busy %.0f%%\n",
		100*rep.CPUUtil, 100*rep.GPUUtil, 100*(1-rep.GPUUtil), 100*rep.LinkUtil)
	fmt.Printf("throughput %.4f GNumbers/s (paper headline: 0.07)\n\n", rep.ThroughputGNs())
}

func figure5() {
	fmt.Println("== Figure 5: time (ms) vs block size S, N = 10 M ==")
	fmt.Printf("%-12s %-12s %-10s %-10s\n", "Block size", "Time (ms)", "CPU busy", "GPU busy")
	for _, s := range []int{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 100000} {
		p, _ := hybrid.NewPlatform(hybrid.DefaultCostModel())
		rep, err := p.GenerateHybrid(10_000_000, s)
		if err != nil {
			die(err)
		}
		fmt.Printf("%-12d %-12.1f %-10.0f %-10.0f\n", s, rep.SimNs/1e6, 100*rep.CPUUtil, 100*rep.GPUUtil)
	}
	fmt.Println()
}

func figure6(n int) {
	fmt.Println("== Figure 6: CPU-only hybrid vs serial glibc rand() (REAL wall clock) ==")
	rep, _, err := hybrid.GenerateCPU(n, 0, core.Config{}, 20120521)
	if err != nil {
		die(err)
	}
	ser, _, err := hybrid.GenerateGlibcSerial(n, 20120521)
	if err != nil {
		die(err)
	}
	fmt.Println(rep)
	fmt.Println(ser)
	fmt.Printf("hybrid projected to the paper's 6-core i7: %.1f ms\n",
		rep.ProjectedWallNs(6)/1e6)
	fmt.Printf("(this host has %d core(s); the hybrid walkers scale linearly —\n"+
		" the paper's Figure 6 crossover needs ≳ %d cores at these per-number costs)\n\n",
		rep.HostCores, int(rep.ProjectedWallNs(1)/float64(rep.N)/ser.PerNumberNs)+1)
}
