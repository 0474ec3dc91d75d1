// Package dataset generates the synthetic stand-ins for the eight real
// datasets of Table 6 of the paper (ImageNet, MSD, GIST, Trevi, Year,
// Notre, NUS-WIDE, Enron).
//
// The real datasets are not redistributable here, so each is replaced by a
// seeded generator that preserves the properties the paper's experiments
// depend on:
//
//   - the dimensionality d (exactly as in Table 6),
//   - the value range after normalization ([0,1]),
//   - cluster structure (points drawn around shared centers, so k-means
//     and kNN behave realistically rather than degenerating to uniform
//     noise), and
//   - the *segment-statistic informativeness* that drives pruning power:
//     MSD-like data has strongly correlated adjacent dimensions, so
//     LB_FNN's per-segment mean/σ carry a lot of information and prune
//     well; GIST-like data is nearly white noise across dimensions, so
//     LB_FNN prunes poorly — matching the paper's §VI-C observations.
//
// FullN records the paper's original cardinality for data-transfer-cost
// math; generated matrices are scaled down (configurable) so tests and
// benches run on a laptop.
package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"pimmine/internal/vec"
)

// Profile describes one synthetic dataset family.
type Profile struct {
	Name  string
	FullN int // cardinality in the paper's Table 6
	D     int // dimensionality (exactly as in Table 6)

	// Clusters is the number of Gaussian mixture components points are
	// drawn from.
	Clusters int

	// Correlation in [0,1) controls smoothness across adjacent
	// dimensions via an AR(1) filter: 0 = white noise (GIST-like, weak
	// segment-statistic pruning), 0.95 = very smooth (MSD-like, strong
	// pruning).
	Correlation float64

	// Spread is the per-dimension noise σ around a cluster center before
	// normalization; smaller values give tighter clusters.
	Spread float64
}

// Profiles lists the eight Table 6 datasets in the paper's order.
// The correlation values are calibrated, not measured from the originals:
// they are chosen so the relative pruning behaviour reported in §VI
// (strong on MSD, weak on GIST, intermediate elsewhere) is reproduced.
var Profiles = []Profile{
	{Name: "ImageNet", FullN: 2340173, D: 150, Clusters: 64, Correlation: 0.70, Spread: 0.12},
	{Name: "MSD", FullN: 992272, D: 420, Clusters: 32, Correlation: 0.92, Spread: 0.08},
	{Name: "GIST", FullN: 1000000, D: 960, Clusters: 16, Correlation: 0.50, Spread: 1.20},
	{Name: "Trevi", FullN: 100000, D: 4096, Clusters: 8, Correlation: 0.85, Spread: 0.08},
	{Name: "Year", FullN: 515345, D: 90, Clusters: 32, Correlation: 0.75, Spread: 0.10},
	{Name: "Notre", FullN: 332668, D: 128, Clusters: 32, Correlation: 0.80, Spread: 0.10},
	{Name: "NUS-WIDE", FullN: 269648, D: 500, Clusters: 64, Correlation: 0.80, Spread: 0.10},
	{Name: "Enron", FullN: 100000, D: 1369, Clusters: 32, Correlation: 0.60, Spread: 0.15},
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("dataset: unknown profile %q", name)
}

// SizeBytes reports the paper's Table 6 on-disk size of the full dataset
// assuming 32-bit values, in bytes.
func (p Profile) SizeBytes() int64 {
	return int64(p.FullN) * int64(p.D) * 4
}

// Dataset is a generated dataset: a normalized matrix in [0,1] plus the
// label of the mixture component each row was drawn from (used by the
// classification examples) and the profile it came from. The mixture
// centers and the min-max transform are retained so Queries can draw
// in-distribution queries into the same normalized space.
type Dataset struct {
	Profile Profile
	X       *vec.Matrix
	Labels  []int

	centers  [][]float64
	lo, span float64 // min-max transform applied to X
}

// Generate draws n rows from the profile's mixture using the given seed
// and min-max normalizes all values into [0,1]. The same (profile, n,
// seed) always yields the same dataset.
func Generate(p Profile, n int, seed int64) *Dataset {
	if n <= 0 {
		panic(fmt.Sprintf("dataset: non-positive n=%d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, p.Clusters)
	for c := range centers {
		centers[c] = smoothVector(rng, p.D, p.Correlation, 1.0)
	}
	m := vec.NewMatrix(n, p.D)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(p.Clusters)
		labels[i] = c
		noise := smoothVector(rng, p.D, p.Correlation, p.Spread)
		row := m.Row(i)
		for j := 0; j < p.D; j++ {
			row[j] = centers[c][j] + noise[j]
		}
	}
	lo, span := normalize(m)
	return &Dataset{Profile: p, X: m, Labels: labels, centers: centers, lo: lo, span: span}
}

// Queries draws nq query vectors from the dataset's own mixture — the
// same cluster centers, fresh noise — and maps them into the dataset's
// normalized space with the same min-max transform (clamped to [0,1],
// which the PIM quantizer requires). Queries are therefore
// in-distribution, as the paper's held-out queries are, but are not
// dataset members.
func (ds *Dataset) Queries(nq int, seed int64) *vec.Matrix {
	if nq <= 0 {
		panic(fmt.Sprintf("dataset: non-positive nq=%d", nq))
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5e3779b97f4a7c15))
	p := ds.Profile
	q := vec.NewMatrix(nq, p.D)
	for i := 0; i < nq; i++ {
		c := rng.Intn(p.Clusters)
		noise := smoothVector(rng, p.D, p.Correlation, p.Spread)
		row := q.Row(i)
		for j := 0; j < p.D; j++ {
			v := (ds.centers[c][j] + noise[j] - ds.lo) / ds.span
			switch {
			case v < 0:
				v = 0
			case v > 1:
				v = 1
			}
			row[j] = v
		}
	}
	return q
}

// WriteCSV writes the dataset as CSV: a header row naming the columns
// x0..x(d-1) and label, then one row per object with its mixture label
// last.
func (ds *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for j := 0; j < ds.X.D; j++ {
		fmt.Fprintf(bw, "x%d,", j)
	}
	bw.WriteString("label\n")
	for i := 0; i < ds.X.N; i++ {
		for _, v := range ds.X.Row(i) {
			bw.WriteString(strconv.FormatFloat(v, 'g', 8, 64))
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%d\n", ds.Labels[i])
	}
	return bw.Flush()
}

// smoothVector draws a d-dim vector whose increments follow an AR(1)
// process with coefficient corr: v[j] = corr·v[j-1] + (1-corr)·g, g~N(0,σ).
// corr=0 reduces to i.i.d. Gaussian noise.
func smoothVector(rng *rand.Rand, d int, corr, sigma float64) []float64 {
	v := make([]float64, d)
	prev := rng.NormFloat64() * sigma
	for j := 0; j < d; j++ {
		g := rng.NormFloat64() * sigma
		prev = corr*prev + (1-corr)*g
		v[j] = prev
	}
	return v
}

// normalize maps all matrix values into [0,1] with a single global min-max
// transform, as §V-B of the paper prescribes before scaling by α. A global
// (rather than per-dimension) transform is an isotropic affine map, so it
// preserves nearest-neighbor and clustering structure exactly. It returns
// the transform so queries can be mapped into the same space.
func normalize(m *vec.Matrix) (lo, span float64) {
	if len(m.Data) == 0 {
		return 0, 1
	}
	lo, hi := m.Data[0], m.Data[0]
	for _, v := range m.Data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span = hi - lo
	if span == 0 {
		for i := range m.Data {
			m.Data[i] = 0
		}
		return lo, 1
	}
	for i := range m.Data {
		m.Data[i] = (m.Data[i] - lo) / span
	}
	return lo, span
}
