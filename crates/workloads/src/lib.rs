//! Workload generators for the experiments.
//!
//! A workload is a sequence of [`StepPattern`]s — the deduplicated memory
//! requests of one P-RAM step (at most one per processor, distinct
//! addresses). Generators cover the request distributions the experiments
//! need:
//!
//! * [`uniform`] — n distinct uniform variables (the papers' canonical
//!   step);
//! * [`permutation`] — a random permutation routed in `m/n`-sized waves;
//! * [`hotspot`] — Zipf-skewed requests (deduplicated, so a skewed step
//!   carries fewer distinct requests — CRCW combining has already
//!   happened);
//! * [`stride`] — regular strided access, the classic bank-conflict
//!   pattern;
//! * [`adversarial`] — the Theorem 1 concentration attack against a
//!   concrete memory map (variables whose copies crowd the fewest
//!   modules);
//! * [`program_trace`] — the real access trace of a P-RAM program from
//!   `pram_machine::programs`.

use memdist::MemoryMap;
use pram_machine::{IdealMemory, Mode, Pram, Program, Word};
use simrng::Rng;

/// One P-RAM step's worth of (deduplicated) requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepPattern {
    /// Distinct addresses read.
    pub reads: Vec<usize>,
    /// Distinct addresses written, with values.
    pub writes: Vec<(usize, Word)>,
}

impl StepPattern {
    /// Total requests.
    pub fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// Whether the step touches no memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `n` distinct uniform variables, a `write_frac` fraction of them writes.
pub fn uniform(n: usize, m: usize, write_frac: f64, rng: &mut impl Rng) -> StepPattern {
    let mut out = StepPattern::default();
    uniform_into(n, m, write_frac, rng, &mut Vec::new(), &mut out);
    out
}

/// [`uniform`] into caller-owned buffers: `scratch` holds the sampled
/// addresses, `out` the pattern. Consumes the generator identically and
/// produces the identical pattern — [`uniform`] delegates here. Hot
/// session loops reuse both buffers so steady-state stepping allocates
/// nothing.
// lint: hot
pub fn uniform_into(
    n: usize,
    m: usize,
    write_frac: f64,
    rng: &mut impl Rng,
    scratch: &mut Vec<u64>,
    out: &mut StepPattern,
) {
    let k = n.min(m);
    rng.sample_distinct_into(m as u64, k, scratch);
    let n_writes = (((k as f64) * write_frac).round() as usize).min(k);
    let (w, r) = scratch.split_at(n_writes);
    out.reads.clear();
    out.reads.extend(r.iter().map(|&a| a as usize));
    out.writes.clear();
    for &a in w {
        out.writes.push((a as usize, rng.next_u64() as Word));
    }
}

/// A random permutation of `[0, m)` accessed in waves of `n`: wave `w`
/// reads `perm[w·n .. (w+1)·n]`. Returns all `⌈m/n⌉` waves.
pub fn permutation(n: usize, m: usize, rng: &mut impl Rng) -> Vec<StepPattern> {
    let mut perm: Vec<usize> = (0..m).collect();
    rng.shuffle(&mut perm);
    perm.chunks(n.max(1))
        .map(|chunk| StepPattern {
            reads: chunk.to_vec(),
            writes: Vec::new(),
        })
        .collect()
}

/// Zipf-distributed requests with exponent `theta`, deduplicated. The
/// higher `theta`, the fewer distinct variables per step.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// Guide table over `g + 1` entries, `g` the largest power of two
    /// `≤ m`: `guide[j]` is the first index whose CDF reaches `j/g`
    /// (`guide[g] = m`), so a draw in `[j/g, (j+1)/g)` inverts inside
    /// `cdf[guide[j]..guide[j + 1]]`.
    guide: Vec<u32>,
}

impl Zipf {
    /// Precompute the CDF over `m` variables (`theta > 0`) and its guide
    /// table.
    pub fn new(m: usize, theta: f64) -> Self {
        assert!(m >= 1 && theta > 0.0);
        assert!(
            u32::try_from(m).is_ok(),
            "m = {m} overflows the guide table"
        );
        let mut cdf = Vec::with_capacity(m);
        let mut acc = 0.0;
        for i in 0..m {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let g = 1usize << m.ilog2();
        let mut guide = Vec::with_capacity(g + 1);
        let mut at = 0;
        for j in 0..g {
            // `j/g` is exact: g is a power of two.
            let edge = j as f64 / g as f64;
            while at < m && cdf[at] < edge {
                at += 1;
            }
            guide.push(at as u32);
        }
        guide.push(m as u32);
        Zipf { cdf, guide }
    }

    /// Sample one variable: the first index whose CDF reaches a uniform
    /// draw `u`, searched only inside `u`'s guide bucket — the same index
    /// a search of the whole CDF finds, since the CDF is monotone.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u = rng.f64();
        let g = self.guide.len() - 1;
        // Exact floor of `u·g` (a power-of-two scale), and `< g`: `u < 1`.
        let j = (u * g as f64) as usize;
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        (lo + self.cdf[lo..hi].partition_point(|&c| c < u)).min(self.cdf.len() - 1)
    }
}

/// Draws below this are deduplicated in a stack bitmap by
/// [`hotspot_into`]; only the rarer draws at or above it are sorted.
const HOTSPOT_HEAD: usize = 4096;

/// `n` Zipf draws, deduplicated into one read step.
pub fn hotspot(n: usize, zipf: &Zipf, rng: &mut impl Rng) -> StepPattern {
    let mut out = StepPattern::default();
    hotspot_into(n, zipf, rng, &mut out);
    out
}

/// [`hotspot`] into a caller-owned pattern: the sorted distinct draws,
/// one [`Zipf::sample`] per request. Draws below a fixed head set bits in
/// a stack bitmap, which is read out in order; only the tail above it is
/// sorted and deduplicated over the reused `reads` buffer, then placed
/// after the head.
// lint: hot
pub fn hotspot_into(n: usize, zipf: &Zipf, rng: &mut impl Rng, out: &mut StepPattern) {
    out.reads.clear();
    out.writes.clear();
    let mut head = [0u64; HOTSPOT_HEAD / 64];
    for _ in 0..n {
        let v = zipf.sample(rng);
        if v < HOTSPOT_HEAD {
            head[v / 64] |= 1 << (v % 64);
        } else {
            out.reads.push(v);
        }
    }
    out.reads.sort_unstable();
    out.reads.dedup();
    let tail = out.reads.len();
    let used = zipf.cdf.len().min(HOTSPOT_HEAD).div_ceil(64);
    for (w, &word) in head[..used].iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.reads.push(64 * w + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
    out.reads.rotate_left(tail);
}

/// `n` strided reads: `offset, offset+stride, …` (mod m), deduplicated.
pub fn stride(n: usize, m: usize, stride: usize, offset: usize) -> StepPattern {
    let mut out = StepPattern::default();
    stride_into(n, m, stride, offset, &mut out);
    out
}

/// [`stride`] into a caller-owned pattern; same sorted-distinct output
/// as the `BTreeSet` construction it replaces.
// lint: hot
pub fn stride_into(n: usize, m: usize, stride: usize, offset: usize, out: &mut StepPattern) {
    out.reads.clear();
    out.writes.clear();
    for i in 0..n {
        out.reads.push((offset + i * stride) % m);
    }
    out.reads.sort_unstable();
    out.reads.dedup();
}

/// The Theorem 1 concentration attack: the `n` variables whose copies are
/// confined to the fewest modules of `map`, issued as one write step.
pub fn adversarial(map: &MemoryMap, n: usize) -> StepPattern {
    let modules = map.modules();
    let loads = map.module_loads();
    let mut order: Vec<usize> = (0..modules).collect();
    order.sort_by_key(|&md| std::cmp::Reverse(loads[md]));
    let mut rank = vec![0u32; modules];
    for (pos, &md) in order.iter().enumerate() {
        rank[md] = pos as u32;
    }
    let mut vars: Vec<(u32, usize)> = (0..map.vars())
        .map(|v| {
            let worst = map
                .copies(v)
                .iter()
                .map(|&md| rank[md as usize])
                .max()
                .unwrap();
            (worst, v)
        })
        .collect();
    vars.sort_unstable();
    StepPattern {
        reads: Vec::new(),
        writes: vars.iter().take(n).map(|&(_, v)| (v, v as Word)).collect(),
    }
}

/// The shared-memory trace of a program run on the ideal machine: one
/// [`StepPattern`] per step that touched memory. Writes are resolved by
/// lowest processor id (PRIORITY), matching the executor.
pub fn program_trace(program: &Program, n: usize, m: usize, mode: Mode) -> Vec<StepPattern> {
    let mut mem = IdealMemory::new(m);
    let report = Pram::new(n, mode)
        .with_trace()
        .run(program, &mut mem)
        .expect("trace workload programs must run clean");
    let mut steps = Vec::new();
    for t in report.trace.unwrap() {
        if t.reads.is_empty() && t.writes.is_empty() {
            continue;
        }
        let mut reads: Vec<usize> = t.reads.iter().map(|&(_, a)| a).collect();
        reads.sort_unstable();
        reads.dedup();
        let mut writes: Vec<(usize, Word)> = Vec::new();
        let mut sorted = t.writes.clone();
        sorted.sort_by_key(|&(p, a, _)| (a, p));
        for (p, a, v) in sorted {
            let _ = p;
            if writes.last().map(|&(wa, _)| wa) != Some(a) {
                writes.push((a, v));
            }
        }
        // Under EREW/CREW a cell is never both read and written; under
        // CRCW drop the read if it collides (the combining front end would
        // satisfy it locally).
        let wset: std::collections::BTreeSet<usize> = writes.iter().map(|&(a, _)| a).collect();
        reads.retain(|a| !wset.contains(a));
        steps.push(StepPattern { reads, writes });
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram_machine::programs;
    use simrng::rng_from_seed;

    #[test]
    fn uniform_distinct_and_sized() {
        let mut rng = rng_from_seed(1);
        let p = uniform(16, 256, 0.25, &mut rng);
        assert_eq!(p.len(), 16);
        assert_eq!(p.writes.len(), 4);
        let mut all: Vec<usize> = p
            .reads
            .iter()
            .copied()
            .chain(p.writes.iter().map(|&(a, _)| a))
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 16);
    }

    #[test]
    fn uniform_clamps_to_memory() {
        let mut rng = rng_from_seed(2);
        let p = uniform(64, 10, 0.0, &mut rng);
        assert_eq!(p.len(), 10);
    }

    #[test]
    fn permutation_covers_memory_once() {
        let mut rng = rng_from_seed(3);
        let waves = permutation(8, 50, &mut rng);
        assert_eq!(waves.len(), 7);
        let mut all: Vec<usize> = waves.iter().flat_map(|w| w.reads.iter().copied()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_skews_small_indices() {
        let z = Zipf::new(1000, 1.2);
        let mut rng = rng_from_seed(4);
        let mut low = 0;
        for _ in 0..2000 {
            if z.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        assert!(
            low > 500,
            "zipf(1.2) should put >25% of mass on the top 10, got {low}"
        );
    }

    #[test]
    fn zipf_sample_matches_the_full_cdf_search() {
        // The pre-guide-table inversion, verbatim.
        fn reference(cdf: &[f64], u: f64) -> usize {
            cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
        }
        /// A generator stuck on one output, so `f64()` yields a chosen
        /// draw: `Fixed(k << 11)` draws exactly `k·2⁻⁵³`.
        struct Fixed(u64);
        impl Rng for Fixed {
            fn next_u64(&mut self) -> u64 {
                self.0
            }
        }
        let raw = |u: f64| ((u * (1u64 << 53) as f64) as u64) << 11;
        for &(m, theta) in &[
            (1usize, 1.0f64),
            (7, 0.5),
            (1000, 1.1),
            (1024, 1.2),
            (1025, 2.0),
            (5000, 0.8),
        ] {
            let z = Zipf::new(m, theta);
            let g = z.guide.len() - 1;
            assert!(g.is_power_of_two() && g <= m && 2 * g > m, "m={m} g={g}");
            let mut ra = rng_from_seed(0x21FF ^ m as u64);
            let mut rb = ra.clone();
            for _ in 0..100_000 {
                let want = reference(&z.cdf, ra.f64());
                assert_eq!(z.sample(&mut rb), want, "m={m} theta={theta}");
            }
            // Every bucket edge j/g and the draw just below it, every CDF
            // value a draw can equal, and the top draw (the m − 1 clamp).
            let mut draws = vec![u64::MAX];
            for j in 0..g {
                let edge = raw(j as f64 / g as f64);
                draws.push(edge);
                draws.push(edge.saturating_sub(1 << 11));
            }
            for &c in &z.cdf {
                if c < 1.0 && (raw(c) >> 11) as f64 / (1u64 << 53) as f64 == c {
                    draws.push(raw(c));
                }
            }
            for x in draws {
                let u = Fixed(x).f64();
                assert_eq!(z.sample(&mut Fixed(x)), reference(&z.cdf, u), "m={m} u={u}");
            }
            assert_eq!(z.sample(&mut Fixed(u64::MAX)), m - 1);
        }
    }

    #[test]
    fn hotspot_dedups() {
        let z = Zipf::new(100, 2.0);
        let mut rng = rng_from_seed(5);
        let p = hotspot(64, &z, &mut rng);
        assert!(p.reads.len() < 64, "heavy skew must collapse under dedup");
        let set: std::collections::HashSet<_> = p.reads.iter().collect();
        assert_eq!(set.len(), p.reads.len());
    }

    #[test]
    fn stride_wraps_and_dedups() {
        let p = stride(8, 16, 4, 1);
        // 1, 5, 9, 13, then wraps onto the same residues.
        assert_eq!(p.reads, vec![1, 5, 9, 13]);
    }

    #[test]
    fn into_variants_match_reference_generators() {
        // The pre-buffer-reuse generators, verbatim. The `_into` forms
        // must produce identical patterns from an identical rng stream.
        fn uniform_ref(n: usize, m: usize, wf: f64, rng: &mut impl Rng) -> StepPattern {
            let k = n.min(m);
            let addrs = rng.sample_distinct(m as u64, k);
            let n_writes = ((k as f64) * wf).round() as usize;
            let (w, r) = addrs.split_at(n_writes.min(k));
            StepPattern {
                reads: r.iter().map(|&a| a as usize).collect(),
                writes: w
                    .iter()
                    .map(|&a| (a as usize, rng.next_u64() as Word))
                    .collect(),
            }
        }
        fn hotspot_ref(n: usize, zipf: &Zipf, rng: &mut impl Rng) -> StepPattern {
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..n {
                seen.insert(zipf.sample(rng));
            }
            StepPattern {
                reads: seen.into_iter().collect(),
                writes: Vec::new(),
            }
        }
        fn stride_ref(n: usize, m: usize, stride: usize, offset: usize) -> StepPattern {
            let mut seen = std::collections::BTreeSet::new();
            for i in 0..n {
                seen.insert((offset + i * stride) % m);
            }
            StepPattern {
                reads: seen.into_iter().collect(),
                writes: Vec::new(),
            }
        }

        let mut scratch = Vec::new();
        let mut got = StepPattern::default();
        let z = Zipf::new(500, 1.1);
        // The serving shape (n = 256, m = 1024), and a memory whose draws
        // land on both sides of the hotspot bitmap's head.
        let serving = Zipf::new(1024, 1.2);
        let wide = Zipf::new(5 * HOTSPOT_HEAD, 0.6);
        let mut straddled = false;
        for seed in 0..8u64 {
            let mut ra = rng_from_seed(0xA110 + seed);
            let mut rb = rng_from_seed(0xA110 + seed);
            for &(n, m, wf) in &[
                (16usize, 64usize, 0.3f64),
                (64, 10, 0.0),
                (100, 4096, 0.5),
                (256, 1024, 0.3),
            ] {
                let want = uniform_ref(n, m, wf, &mut ra);
                uniform_into(n, m, wf, &mut rb, &mut scratch, &mut got);
                assert_eq!(got, want, "uniform n={n} m={m}");
            }
            for (n, zipf) in [(48, &z), (256, &serving), (256, &wide)] {
                let want = hotspot_ref(n, zipf, &mut ra);
                hotspot_into(n, zipf, &mut rb, &mut got);
                assert_eq!(got, want, "hotspot n={n} m={}", zipf.cdf.len());
            }
            straddled |=
                got.reads[0] < HOTSPOT_HEAD && got.reads[got.reads.len() - 1] >= HOTSPOT_HEAD;
            assert_eq!(ra.next_u64(), rb.next_u64(), "rng streams in lockstep");
        }
        assert!(straddled, "the wide case must draw past the bitmap's head");
        for &(n, m, st, off) in &[(8usize, 16usize, 4usize, 1usize), (100, 7, 3, 5)] {
            let want = stride_ref(n, m, st, off);
            stride_into(n, m, st, off, &mut got);
            assert_eq!(got, want, "stride n={n} m={m} s={st} o={off}");
        }
    }

    #[test]
    fn adversarial_targets_loaded_modules() {
        let map = MemoryMap::congested(128, 32, 3);
        let p = adversarial(&map, 16);
        assert_eq!(p.writes.len(), 16);
    }

    #[test]
    fn program_trace_replays_parallel_sum() {
        let n = 8;
        let prog = programs::parallel_sum(n);
        let steps = program_trace(&prog, n, programs::parallel_sum_layout(n), Mode::Erew);
        assert!(!steps.is_empty());
        // Every step fits the one-request-per-processor budget.
        for s in &steps {
            assert!(s.len() <= n);
        }
    }

    #[test]
    fn program_trace_handles_crcw() {
        let n = 8;
        let prog = programs::max_crcw(n);
        let steps = program_trace(
            &prog,
            n,
            programs::max_crcw_layout(n),
            Mode::Crcw(pram_machine::WritePolicy::Max),
        );
        // The concurrent write collapses to one request after combining.
        let last = steps.last().unwrap();
        assert!(last.writes.len() <= 1 || last.len() <= n);
    }
}
