// Command listrank regenerates the paper's Figure 7: list-ranking
// Phase I times for pure-GPU-MT, hybrid-glibc ([3]) and the
// on-demand hybrid PRNG, over list sizes up to 128 M nodes on the
// simulated platform. The table comes from the model's expected
// survivor counts per iteration (RankTimeSim given no measured
// statistics). A real reduction on a scaled list runs first: it
// verifies the ranks and prints its iteration and draw counts, which
// the table does not use.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/baselines"
	"repro/internal/listrank"
	"repro/internal/rng"
)

func main() {
	measureN := flag.Int("measure", 1_000_000, "real list size used to measure reduction behaviour")
	seed := flag.Uint64("seed", 20120521, "seed for the measured run")
	flag.Parse()

	// A real reduction run verifies the algorithm end to end.
	l, err := listrank.NewRandomList(*measureN, baselines.NewSplitMix64(*seed))
	if err != nil {
		die(err)
	}
	want, err := listrank.SequentialRanks(l)
	if err != nil {
		die(err)
	}
	got, stats, err := listrank.FISRank(l, baselines.NewSplitMix64(*seed+1))
	if err != nil {
		die(err)
	}
	for i := range want {
		if got[i] != want[i] {
			die(fmt.Errorf("FIS ranks disagree with sequential at node %d", i))
		}
	}
	fmt.Printf("real FIS reduction on %d nodes: %d iterations, %d randoms drawn on demand, ranks verified\n",
		*measureN, stats.Iterations, stats.RandomsDrawn)

	// The multicore ranker (scan/compact based, as in [3]'s GPU
	// structure) must agree too.
	par, _, err := listrank.FISRankParallel(l, 4, func(w int) rng.Source {
		return baselines.NewSplitMix64(baselines.Mix64(*seed + uint64(w)))
	})
	if err != nil {
		die(err)
	}
	for i := range want {
		if par[i] != want[i] {
			die(fmt.Errorf("parallel ranks disagree at node %d", i))
		}
	}
	fmt.Printf("parallel (4-worker) FIS ranking verified against sequential\n\n")

	fmt.Println("== Figure 7: Phase I time (ms), simulated platform ==")
	fmt.Printf("%-12s %-16s %-20s %-20s %-10s\n", "List (M)", "Pure GPU MT", "Hybrid (glibc)", "Hybrid (our PRNG)", "Gain")
	for _, m := range []int64{8, 16, 32, 64, 128} {
		n := m * 1_000_000
		mt, err := listrank.RankTimeSim(listrank.VariantPureGPUMT, n, nil)
		if err != nil {
			die(err)
		}
		gl, err := listrank.RankTimeSim(listrank.VariantHybridGlibc, n, nil)
		if err != nil {
			die(err)
		}
		ours, err := listrank.RankTimeSim(listrank.VariantHybridOurs, n, nil)
		if err != nil {
			die(err)
		}
		fmt.Printf("%-12d %-16.1f %-20.1f %-20.1f %.0f%%\n",
			m, mt.SimNs/1e6, gl.SimNs/1e6, ours.SimNs/1e6, 100*(1-ours.SimNs/gl.SimNs))
	}
	fmt.Println("\nGain = improvement of the on-demand hybrid over the hybrid of [3] (paper: ≈ 40%).")
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "listrank:", err)
	os.Exit(1)
}
