// Command tracegen dumps the synthetic workload streams used by the
// simulators, for inspection or external consumption.
//
// Usage:
//
//	tracegen -bench stereo -kind mem -n 20        # address trace
//	tracegen -bench turb3d -kind ilp -n 20        # instruction stream
//	tracegen -bench stereo -kind memstats -n 1000000
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"capsim/internal/workload"
)

func main() {
	var (
		bench = flag.String("bench", "gcc", "benchmark name (see -list)")
		kind  = flag.String("kind", "mem", "mem | ilp | memstats")
		n     = flag.Int("n", 32, "number of records")
		seed  = flag.Uint64("seed", 1998, "workload seed")
		list  = flag.Bool("list", false, "list benchmark names and exit")
	)
	flag.Parse()

	if *list {
		for _, b := range workload.All() {
			mem := "mem+ilp"
			if b.Mem == nil {
				mem = "ilp only"
			}
			fmt.Printf("%-10s %-10s %s\n", b.Name, b.Suite, mem)
		}
		return
	}
	if *n < 1 {
		fmt.Fprintf(os.Stderr, "tracegen: -n %d must be at least 1\n", *n)
		os.Exit(2)
	}
	b, err := workload.ByName(*bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	switch *kind {
	case "mem":
		if b.Mem == nil {
			fmt.Fprintf(os.Stderr, "tracegen: %s has no memory profile\n", b.Name)
			os.Exit(1)
		}
		tr := workload.NewAddressTrace(b, *seed)
		for i := 0; i < *n; i++ {
			r := tr.Next()
			op := "R"
			if r.Write {
				op = "W"
			}
			fmt.Fprintf(w, "%s 0x%08x\n", op, r.Addr)
		}
	case "ilp":
		s := workload.NewInstrStream(b, *seed)
		for i := 0; i < *n; i++ {
			in := s.Next()
			fmt.Fprintf(w, "i%d: src(-%d, -%d) lat=%d\n", i, in.Src[0], in.Src[1], in.Latency)
		}
	case "memstats":
		if b.Mem == nil {
			fmt.Fprintf(os.Stderr, "tracegen: %s has no memory profile\n", b.Name)
			os.Exit(1)
		}
		tr := workload.NewAddressTrace(b, *seed)
		blocks := map[uint64]int{}
		writes := 0
		for i := 0; i < *n; i++ {
			r := tr.Next()
			blocks[r.Addr/32]++
			if r.Write {
				writes++
			}
		}
		fmt.Fprintf(w, "%s: %d refs, %d distinct 32B blocks (~%d KB touched), %.1f%% writes\n",
			b.Name, *n, len(blocks), len(blocks)*32/1024, 100*float64(writes)/float64(*n))
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
}
