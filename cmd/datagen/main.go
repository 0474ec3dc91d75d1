// Command datagen inspects the synthetic Table 6 dataset generators:
// it prints per-profile statistics (shape, value range, cluster balance,
// segment-statistic informativeness) and can dump a generated dataset as
// CSV (a header row naming the columns, the label column last) for
// cmd/pimmine and external tooling.
//
// Usage:
//
//	datagen                     # statistics for every profile
//	datagen -dataset MSD -n 100 -csv   # dump 100 MSD-like rows as CSV
package main

import (
	"flag"
	"fmt"
	"os"

	"pimmine/internal/dataset"
	"pimmine/internal/vec"
)

func main() {
	dsName := flag.String("dataset", "", "profile to inspect (default: all)")
	n := flag.Int("n", 1000, "rows to generate")
	seed := flag.Int64("seed", 1, "generation seed")
	csv := flag.Bool("csv", false, "dump generated rows as CSV to stdout")
	flag.Parse()

	profiles := dataset.Profiles
	if *dsName != "" {
		p, err := dataset.ByName(*dsName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "datagen:", err)
			os.Exit(1)
		}
		profiles = []dataset.Profile{p}
	}

	for _, p := range profiles {
		rows := *n
		if p.D >= 2048 && rows > 250 {
			rows = 250
		}
		ds := dataset.Generate(p, rows, *seed)
		if *csv {
			if err := ds.WriteCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "datagen:", err)
				os.Exit(1)
			}
			continue
		}
		describe(ds)
	}
}

func describe(ds *dataset.Dataset) {
	p := ds.Profile
	counts := make([]int, p.Clusters)
	for _, l := range ds.Labels {
		counts[l]++
	}
	minC, maxC := ds.X.N, 0
	for _, c := range counts {
		if c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	// Segment-structure ratio: between-segment spread vs within-segment
	// noise, the quantity that drives LB_FNN pruning power.
	segs := 16
	for p.D%segs != 0 {
		segs--
	}
	var between, within float64
	for i := 0; i < ds.X.N; i++ {
		mu, sigma, err := vec.SegmentStats(ds.X.Row(i), segs)
		if err == nil {
			between += vec.Std(mu)
			within += vec.Mean(sigma)
		}
	}
	ratio := 0.0
	if within > 0 {
		between /= float64(ds.X.N)
		within /= float64(ds.X.N)
		ratio = between / within
	}
	fmt.Printf("%-9s fullN=%-8d d=%-5d generated=%-6d clusters=%d (sizes %d..%d) corr=%.2f segRatio=%.2f\n",
		p.Name, p.FullN, p.D, ds.X.N, p.Clusters, minC, maxC, p.Correlation, ratio)
}
