package exp

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/bound"
	"pimmine/internal/knn"
	"pimmine/internal/lsh"
	"pimmine/internal/measure"
	"pimmine/internal/pim"
)

func init() {
	register("fig13a", Fig13a)
	register("fig13b", Fig13b)
	register("fig13c", Fig13c)
	register("fig13d", Fig13d)
	register("fig14", Fig14)
	register("fig15", Fig15)
	register("fig16", Fig16)
	register("fig17", Fig17)
}

// runSearcher measures the mean modeled per-query time of a searcher.
func (s *Suite) runSearcher(alg knn.Searcher, w *knnWorkload, k int) float64 {
	m := arch.NewMeter()
	for qi := 0; qi < w.queries.N; qi++ {
		alg.Search(w.queries.Row(qi), k, m)
	}
	return s.modeledMs(m) / float64(w.queries.N)
}

// Fig13a: Standard vs Standard-PIM across datasets (k=10, ED). The
// speedup must grow with dimensionality and collapse on GIST, whose white
// noise defeats LB_FNN-style pruning.
func Fig13a(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig13a",
		Title:  "kNN time vs dataset (Standard vs Standard-PIM, k=10, ED)",
		Header: []string{"Dataset", "d", "s(Thm4)", "Standard(ms/q)", "Standard-PIM(ms/q)", "Speedup"},
	}
	for _, name := range []string{"ImageNet", "MSD", "Trevi", "GIST"} {
		w, err := s.knnWorkloadFor(name)
		if err != nil {
			return nil, err
		}
		std := knn.NewStandard(w.data)
		eng, err := s.engine()
		if err != nil {
			return nil, err
		}
		sp, err := knn.NewStandardPIM(eng, w.data, s.Quant, w.fullN)
		if err != nil {
			return nil, err
		}
		base := s.runSearcher(std, w, 10)
		pimMs := s.runSearcher(sp, w, 10)
		t.AddRow(name, fmt.Sprintf("%d", w.data.D), fmt.Sprintf("%d", sp.S()),
			ms(base), ms(pimMs), speedup(base, pimMs))
	}
	t.Note("paper: up to 453x on Trevi; slight gain on GIST (LB_FNN prunes weakly there)")
	return t, nil
}

// Fig13b: the four algorithms ± PIM plus PIM-oracle on MSD (k=10).
func Fig13b(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig13b",
		Title:  "kNN time vs algorithm on MSD (k=10)",
		Header: []string{"Algorithm", "No-PIM(ms/q)", "PIM(ms/q)", "PIM-oracle(ms/q)", "Speedup"},
	}
	w, err := s.knnWorkloadFor("MSD")
	if err != nil {
		return nil, err
	}
	data := w.data
	build := func(name string, eng *pim.Engine) (knn.Searcher, knn.Searcher, error) {
		switch name {
		case "Standard":
			p, err := knn.NewStandardPIM(eng, data, s.Quant, w.fullN)
			return knn.NewStandard(data), p, err
		case "OST":
			h, err := knn.NewOST(data, data.D/2)
			if err != nil {
				return nil, nil, err
			}
			p, err := knn.NewOSTPIM(eng, data, s.Quant, data.D/2, w.fullN)
			return h, p, err
		case "SM":
			h, err := knn.NewSM(data, 28)
			if err != nil {
				return nil, nil, err
			}
			p, err := knn.NewSMPIM(eng, data, s.Quant, 28, w.fullN)
			return h, p, err
		case "FNN":
			h, err := knn.NewFNN(data)
			if err != nil {
				return nil, nil, err
			}
			p, err := knn.NewFNNPIM(eng, data, s.Quant, w.fullN)
			return h, p, err
		}
		return nil, nil, fmt.Errorf("exp: unknown algorithm %q", name)
	}
	for _, name := range []string{"Standard", "OST", "SM", "FNN"} {
		eng, err := s.engine()
		if err != nil {
			return nil, err
		}
		host, pimAlg, err := build(name, eng)
		if err != nil {
			return nil, err
		}
		baseMs := s.runSearcher(host, w, 10)
		pimMs := s.runSearcher(pimAlg, w, 10)
		// PIM-oracle: time of everything except the PIM-aware functions.
		r := s.profileKNN(name, host, w, 10)
		oracle := r.PIMOracleAuto() / 1e6 / float64(w.queries.N)
		t.AddRow(name, ms(baseMs), ms(pimMs), ms(oracle), speedup(baseMs, pimMs))
	}
	t.Note("paper: state-of-art algorithms are 3.9x over Standard; PIM lifts them to 40.8x on average")
	return t, nil
}

// Fig13c: Standard vs Standard-PIM as k varies on MSD.
func Fig13c(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig13c",
		Title:  "kNN time vs k on MSD (Standard vs Standard-PIM)",
		Header: []string{"k", "Standard(ms/q)", "Standard-PIM(ms/q)", "Speedup"},
	}
	w, err := s.knnWorkloadFor("MSD")
	if err != nil {
		return nil, err
	}
	std := knn.NewStandard(w.data)
	eng, err := s.engine()
	if err != nil {
		return nil, err
	}
	sp, err := knn.NewStandardPIM(eng, w.data, s.Quant, w.fullN)
	if err != nil {
		return nil, err
	}
	for _, k := range []int{1, 10, 100} {
		base := s.runSearcher(std, w, k)
		pimMs := s.runSearcher(sp, w, k)
		t.AddRow(fmt.Sprintf("%d", k), ms(base), ms(pimMs), speedup(base, pimMs))
	}
	t.Note("paper: 71.5x/57.1x/29.2x — speedup declines as k grows (more refinement)")
	return t, nil
}

// Fig13d: Standard vs Standard-PIM under ED, CS and PCC on MSD.
func Fig13d(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig13d",
		Title:  "kNN time vs distance function on MSD (k=10)",
		Header: []string{"Distance", "Standard(ms/q)", "Standard-PIM(ms/q)", "Speedup"},
	}
	w, err := s.knnWorkloadFor("MSD")
	if err != nil {
		return nil, err
	}
	// ED row.
	eng, err := s.engine()
	if err != nil {
		return nil, err
	}
	sp, err := knn.NewStandardPIM(eng, w.data, s.Quant, w.fullN)
	if err != nil {
		return nil, err
	}
	base := s.runSearcher(knn.NewStandard(w.data), w, 10)
	pimMs := s.runSearcher(sp, w, 10)
	t.AddRow("ED", ms(base), ms(pimMs), speedup(base, pimMs))
	// CS and PCC rows.
	for _, kind := range []measure.Kind{measure.CS, measure.PCC} {
		std, err := knn.NewSimStandard(w.data, kind)
		if err != nil {
			return nil, err
		}
		eng, err := s.engine()
		if err != nil {
			return nil, err
		}
		simPIM, err := knn.NewSimPIM(eng, w.data, s.Quant, kind, w.data.N)
		if err != nil {
			return nil, err
		}
		b := s.runSearcher(std, w, 10)
		p := s.runSearcher(simPIM, w, 10)
		t.AddRow(kind.String(), ms(b), ms(p), speedup(b, p))
	}
	t.Note("paper: similar gaps across measures, slightly weaker on PCC (bound shares the µ/σ statistics)")
	return t, nil
}

// Fig14: HD kNN on SimHash binary codes as code length varies. PIM only
// pays off beyond ~128 bits (the PIM path always moves 64 result bits per
// object regardless of code length).
func Fig14(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig14",
		Title:  "kNN on binary codes vs dimension (HD, k=10)",
		Header: []string{"Bits", "Standard(ms/q)", "Standard-PIM(ms/q)", "Speedup"},
	}
	ds, err := s.Data("GIST")
	if err != nil {
		return nil, err
	}
	queries := ds.Queries(s.Queries, s.Seed+200)
	for _, bits := range []int{128, 256, 512, 1024} {
		hasher := lsh.NewHasher(ds.X.D, bits, s.Seed+300)
		codes := hasher.HashAll(ds.X)
		qCodes := hasher.HashAll(queries)
		std := knn.NewHDStandard(codes)
		eng, err := s.engine()
		if err != nil {
			return nil, err
		}
		// Capacity check against the paper's 10M-code workload.
		hp, err := knn.NewHDPIM(eng, codes, 10_000_000)
		if err != nil {
			return nil, err
		}
		mStd, mPIM := arch.NewMeter(), arch.NewMeter()
		for _, qc := range qCodes {
			std.Search(qc, 10, mStd)
			hp.Search(qc, 10, mPIM)
		}
		b := s.modeledMs(mStd) / float64(len(qCodes))
		p := s.modeledMs(mPIM) / float64(len(qCodes))
		t.AddRow(fmt.Sprintf("%d", bits), ms(b), ms(p), speedup(b, p))
	}
	t.Note("paper: little gain at 128 bits (HD already moves only d bits); speedup grows with code length")
	return t, nil
}

// Fig15: pruning ratio and full-scale data-transfer cost of the FNN
// cascade bounds vs the PIM-aware bound on MSD (α=10⁶).
func Fig15(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig15",
		Title:  "Pruning ratio and transfer cost of bounds (MSD, k=10, α=10⁶)",
		Header: []string{"Bound", "PruneRatio", "Transfer/object", "FullDataset(MB)"},
	}
	w, err := s.knnWorkloadFor("MSD")
	if err != nil {
		return nil, err
	}
	eng, err := s.engine()
	if err != nil {
		return nil, err
	}
	pimAlg, err := knn.NewFNNPIM(eng, w.data, s.Quant, w.fullN)
	if err != nil {
		return nil, err
	}
	host, err := knn.NewFNN(w.data)
	if err != nil {
		return nil, err
	}
	cands, err := knn.Candidates(w.data, w.queries, 10, pimAlg, host)
	if err != nil {
		return nil, err
	}
	// Candidates lists the array bound first; the figure lists it last.
	for _, c := range append(cands[1:], cands[0]) {
		bytes := float64(w.fullN) * float64(c.TransferDims) * 4
		t.AddRow(c.Name, pct(c.PruneRatio), fmt.Sprintf("%d", c.TransferDims), fmt.Sprintf("%.1f", bytes/(1<<20)))
	}
	t.Note("paper: LB_PIM-FNN-105 prunes ~99%% at 3·b bits/object; original bounds cost d′·b or 2d′·b")
	return t, nil
}

// Fig16: execution-plan optimization on MSD — FNN vs FNN-PIM (default
// plan) vs FNN-PIM-optimize (§V-D plan) vs the oracle, as k varies.
func Fig16(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig16",
		Title:  "Execution-plan optimization (FNN family on MSD)",
		Header: []string{"k", "FNN(ms/q)", "FNN-PIM(ms/q)", "FNN-PIM-opt(ms/q)", "Oracle(ms/q)", "Plan"},
	}
	w, err := s.knnWorkloadFor("MSD")
	if err != nil {
		return nil, err
	}
	fw, err := newFramework(s)
	if err != nil {
		return nil, err
	}
	acc, err := fw.AccelerateKNN(w.data, coreKNNOptions(w, s))
	if err != nil {
		return nil, err
	}
	for _, k := range []int{1, 10, 100} {
		baseMs := s.runSearcher(acc.Baseline, w, k)
		pimMs := s.runSearcher(acc.PIM, w, k)
		optMs := s.runSearcher(acc.Optimized, w, k)
		r := s.profileKNN("FNN", acc.Baseline, w, k)
		oracle := r.PIMOracleAuto() / 1e6 / float64(w.queries.N)
		t.AddRow(fmt.Sprintf("%d", k), ms(baseMs), ms(pimMs), ms(optMs), ms(oracle), acc.Plan.String())
	}
	t.Note("paper: FNN-PIM-optimize drops the original bounds and approaches FNN-PIM-oracle")
	return t, nil
}

// Fig17: pre-processing time of FNN vs FNN-PIM-optimize per dataset. The
// host baseline precomputes three granularities of segment statistics and
// writes them to DRAM; the PIM variant precomputes one granularity plus Φ
// but pays ReRAM programming latency.
func Fig17(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "fig17",
		Title:  "Pre-processing time (FNN vs FNN-PIM-optimize)",
		Header: []string{"Dataset", "FNN(ms)", "FNN-PIM-opt(ms)", "Ratio"},
	}
	for _, name := range []string{"ImageNet", "MSD", "Trevi", "GIST"} {
		w, err := s.knnWorkloadFor(name)
		if err != nil {
			return nil, err
		}
		data := w.data
		levels := bound.FNNLevels(data.D)

		// FNN: 3 granularities, host compute + DRAM write.
		mHost := arch.NewMeter()
		c := mHost.C("preprocess")
		for _, segs := range levels {
			c.Ops += int64(data.N) * int64(data.D) * 3 // mean+σ accumulation
			c.SeqBytes += int64(data.N) * int64(data.D) * 4
			c.SeqBytes += int64(data.N) * int64(2*segs) * 4 // DRAM write-back
		}
		hostMs := s.modeledMs(mHost)

		// FNN-PIM-optimize: one granularity, Φ precompute, ReRAM program —
		// the Theorem 4 LB_PIM-FNN payloads alone, which is what
		// Standard-PIM programs.
		eng, err := s.engine()
		if err != nil {
			return nil, err
		}
		pimAlg, err := knn.NewStandardPIM(eng, data, s.Quant, w.fullN)
		if err != nil {
			return nil, err
		}
		mPIM := arch.NewMeter()
		cp := mPIM.C("preprocess")
		cp.Ops += int64(data.N) * int64(data.D) * 4 // stats + quantization + Φ
		cp.SeqBytes += int64(data.N) * int64(data.D) * 4
		pimAlg.RecordPreprocessing(mPIM)
		pimMs := s.modeledMs(mPIM)

		t.AddRow(name, ms(hostMs), ms(pimMs), fmt.Sprintf("%.2fx", pimMs/hostMs))
	}
	t.Note("paper: PIM pre-processing is 1.9x slower on average (ReRAM writes) but writes ~33%% less data")
	return t, nil
}
