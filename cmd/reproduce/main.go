// Command reproduce runs every experiment of the paper in sequence
// and prints the tables and figures of EXPERIMENTS.md: Table I,
// Figures 1 and 3–8, Tables II and III, and the headline throughput.
//
// Usage:
//
//	reproduce [-exp all|headline|F1|F3|F4|F5|F6|F7|F8|T1|T2|T3] [-fast]
//
// -fast shrinks the statistical batteries (T2/T3) to smoke-test
// sizes.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/gpu"
	"repro/internal/hybrid"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (all, headline, F1, F3..F8, T1..T3; extras: ablation, expander)")
	fast := flag.Bool("fast", false, "smoke-test sizes for the statistical batteries")
	flag.Parse()

	run := func(id string) bool { return *exp == "all" || strings.EqualFold(*exp, id) }
	scale, battery := "1", "all"
	if *fast {
		scale, battery = "0.25", "small"
	}

	if run("headline") {
		headline()
	}
	if run("F1") {
		figure1()
	}
	if run("T1") {
		delegate("prngbench", "-table1")
	}
	if run("F3") {
		delegate("prngbench", "-figure3")
	}
	if run("F4") {
		delegate("prngbench", "-figure4")
	}
	if run("F5") {
		delegate("prngbench", "-figure5")
	}
	if run("F6") {
		delegate("prngbench", "-figure6")
	}
	if run("T2") {
		fmt.Println("== Table II: DIEHARD battery ==")
		delegate("dieharder", "-scale", scale)
		fmt.Println()
	}
	if run("T3") {
		fmt.Println("== Table III: TestU01-style batteries ==")
		delegate("crush", "-battery", battery)
		fmt.Println()
	}
	if run("F7") {
		delegate("listrank")
	}
	if run("F8") {
		delegate("photonmc")
	}
	// Extras run only when named explicitly (they are beyond the
	// paper's tables/figures).
	if strings.EqualFold(*exp, "ablation") {
		delegate("ablation")
	}
	if strings.EqualFold(*exp, "expander") {
		delegate("expander")
	}
}

// delegate runs a sibling tool in-process via `go run` when built
// from source, or the installed binary when on PATH; falling back to
// `go run ./cmd/<tool>` keeps the command usable from a source
// checkout.
func delegate(tool string, args ...string) {
	if path, err := exec.LookPath(tool); err == nil {
		cmd := exec.Command(path, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err == nil {
			return
		}
	}
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + tool}, args...)...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "reproduce: %s: %v\n", tool, err)
		os.Exit(1)
	}
}

func headline() {
	fmt.Println("== Headline: generator throughput ==")
	p, err := hybrid.NewPlatform(hybrid.DefaultCostModel())
	if err != nil {
		die(err)
	}
	rep, err := p.GenerateHybrid(50_000_000, 100)
	if err != nil {
		die(err)
	}
	fmt.Printf("simulated platform: %.4f GNumbers/s (paper: 0.07)\n\n", rep.ThroughputGNs())
}

func figure1() {
	fmt.Println("== Figure 1: pure-device vs hybrid schedule ==")
	const n = 2_000_000
	ps, err := hybrid.NewPlatform(hybrid.DefaultCostModel())
	if err != nil {
		die(err)
	}
	serial, err := ps.PureDeviceSerialHybrid(n, 100)
	if err != nil {
		die(err)
	}
	po, _ := hybrid.NewPlatform(hybrid.DefaultCostModel())
	overlap, err := po.GenerateHybrid(n, 100)
	if err != nil {
		die(err)
	}
	fmt.Printf("serial (no overlap): %8.2f ms, CPU busy %2.0f%%, GPU busy %2.0f%%\n",
		serial.SimNs/1e6, 100*serial.CPUUtil, 100*serial.GPUUtil)
	fmt.Printf("hybrid (pipelined):  %8.2f ms, CPU busy %2.0f%%, GPU busy %2.0f%%\n",
		overlap.SimNs/1e6, 100*overlap.CPUUtil, 100*overlap.GPUUtil)
	fmt.Println("\npipelined timeline (first iterations; F=feed, T=transfer, G=generate):")
	fmt.Println(miniTimeline())
}

// miniTimeline renders a short hybrid schedule for the Figure 1/4
// visual.
func miniTimeline() string {
	p, err := hybrid.NewPlatform(hybrid.DefaultCostModel())
	if err != nil {
		die(err)
	}
	m := p.Model
	pl := p.Pipeline()
	const threads = 50_000
	for i := 0; i < 6; i++ {
		pl.Chunk(int64(m.FeedBytesPerNumber()*threads), m.FeedBytesPerSec,
			gpu.Kernel{Name: "G", Threads: threads, CyclesPerThread: m.GenCyclesPerNumber()})
	}
	return p.Sim.TimelineString(92)
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "reproduce:", err)
	os.Exit(1)
}
