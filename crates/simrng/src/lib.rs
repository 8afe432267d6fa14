//! Deterministic pseudo-random number generation for reproducible experiments.
//!
//! Every experiment in this workspace must be bit-exactly reproducible from a
//! single `u64` seed, across platforms and across releases of the workspace.
//! We therefore implement the generators ourselves instead of depending on an
//! external crate whose stream might change between versions:
//!
//! * [`SplitMix64`] — a tiny, fast generator used for seeding and for
//!   cheap decorrelated sub-streams,
//! * [`Xoshiro256pp`] — xoshiro256++ (Blackman & Vigna), the workhorse
//!   generator used everywhere else.
//!
//! Statistical quality far exceeds what the experiments need (memory-map
//! generation, workload sampling).

pub mod hash;
mod splitmix;
mod xoshiro;

pub use hash::{DetHashMap, DetHashSet, Fnv64, FnvBuildHasher};
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256pp;

/// A deterministic random-number generator with the operations the
/// workspace's experiments need.
///
/// All default methods are implemented in terms of [`Rng::next_u64`], so the
/// produced streams are fully determined by the core generator.
pub trait Rng {
    /// Next raw 64-bit output of the generator.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32-bit output (upper half of [`Rng::next_u64`], which for
    /// xoshiro-family generators is the better half).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)` using Lemire's unbiased multiply-shift
    /// rejection method. `bound` must be nonzero.
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    #[inline]
    fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        let n = slice.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// `k` distinct values sampled uniformly from `[0, bound)`, in random
    /// order. Uses Floyd's algorithm: O(k) expected work, O(k) memory.
    fn sample_distinct(&mut self, bound: u64, k: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(k);
        self.sample_distinct_into(bound, k, &mut out);
        out
    }

    /// [`Rng::sample_distinct`] into a caller-owned buffer, so hot loops
    /// can reuse one allocation across steps. Consumes the generator
    /// identically and produces the identical sample: `sample_distinct`
    /// delegates here.
    // lint: hot
    fn sample_distinct_into(&mut self, bound: u64, k: usize, out: &mut Vec<u64>) {
        assert!(
            (k as u64) <= bound,
            "cannot sample {k} distinct from {bound}"
        );
        out.clear();
        // For dense requests a shuffle of the full range is cheaper and
        // avoids the membership check.
        if (k as u64) * 4 >= bound * 3 {
            out.extend(0..bound);
            self.shuffle(out);
            out.truncate(k);
            return;
        }
        // Floyd's sampler needs "was t already chosen?". The chosen set is
        // exactly `out[..]`, so for small k a linear scan answers it (and
        // allocates nothing); the answers — hence the output and the rng
        // stream — are the same either way.
        if k <= 64 {
            for j in (bound - k as u64)..bound {
                let t = self.below(j + 1);
                let v = if out.contains(&t) { j } else { t };
                out.push(v);
            }
        } else {
            // Larger k keeps the chosen set in an open-addressed table
            // behind the sample in `out` (load ≤ 1/2, multiplicative
            // hash, linear probing): a reused buffer allocates nothing,
            // and the sample is cut back to its k values at the end.
            // `u64::MAX` marks an empty slot; a value is below `bound`,
            // so it never is one.
            const EMPTY: u64 = u64::MAX;
            let slots = (2 * k).next_power_of_two();
            let shift = 64 - slots.trailing_zeros();
            out.resize(k + slots, EMPTY);
            let (sample, table) = out.split_at_mut(k);
            // The slot holding `x`, or the empty slot where it belongs.
            let find = |table: &[u64], x: u64| {
                let mut at = (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
                while table[at] != x && table[at] != EMPTY {
                    at = (at + 1) & (slots - 1);
                }
                at
            };
            for (s, j) in sample.iter_mut().zip((bound - k as u64)..bound) {
                let t = self.below(j + 1);
                let at = find(table, t);
                // j exceeds every value chosen so far, so it is new.
                let (v, at) = if table[at] == t {
                    (j, find(table, j))
                } else {
                    (t, at)
                };
                table[at] = v;
                *s = v;
            }
            out.truncate(k);
        }
        self.shuffle(out);
    }

    /// A decorrelated child generator, for deterministic parallel streams.
    fn fork(&mut self) -> Xoshiro256pp {
        Xoshiro256pp::seed_from(self.next_u64())
    }
}

/// Convenience constructor for the workspace's default generator.
pub fn rng_from_seed(seed: u64) -> Xoshiro256pp {
    Xoshiro256pp::seed_from(seed)
}

/// The SplitMix64 finalizer as a stateless mixing function — a fast,
/// high-quality 64-bit hash for deterministic placement decisions
/// (e.g. which grid row holds a copy).
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Default experiment seed used across the benchmark harness.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// The FNV-1a 64-bit offset basis — the initial value for [`fnv1a`]
/// accumulation chains.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one value into a running FNV-1a 64-bit hash (little-endian
/// bytes). This is the workspace's *one* definition of the trace/golden
/// hash: the golden determinism snapshots and the serving layer's
/// per-session trace hashes both accumulate with it, so the two can
/// never silently drift apart.
#[inline]
pub fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = rng_from_seed(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = rng_from_seed(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = rng_from_seed(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = rng_from_seed(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn below_one_is_zero() {
        let mut r = rng_from_seed(7);
        for _ in 0..10 {
            assert_eq!(r.below(1), 0);
        }
    }

    #[test]
    fn range_inclusive_endpoints_reachable() {
        let mut r = rng_from_seed(11);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2000 {
            let v = r.range_inclusive(3, 6);
            assert!((3..=6).contains(&v));
            lo_seen |= v == 3;
            hi_seen |= v == 6;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = rng_from_seed(5);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = rng_from_seed(9);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "astronomically unlikely identity"
        );
    }

    #[test]
    fn sample_distinct_properties() {
        let mut r = rng_from_seed(13);
        for &(bound, k) in &[(100u64, 10usize), (16, 16), (1000, 999), (1, 1), (8, 0)] {
            let s = r.sample_distinct(bound, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "values must be distinct");
            assert!(s.iter().all(|&v| v < bound));
        }
    }

    #[test]
    fn sample_distinct_into_matches_reference() {
        // The pre-buffer-reuse algorithm, verbatim: Floyd's with a hash
        // set, dense fallback. `sample_distinct_into` must consume the
        // generator identically and produce the identical vector across
        // the dense, linear-scan (k ≤ 64), and hash-set (k > 64) paths.
        fn reference(rng: &mut impl Rng, bound: u64, k: usize) -> Vec<u64> {
            if (k as u64) * 4 >= bound * 3 {
                let mut all: Vec<u64> = (0..bound).collect();
                rng.shuffle(&mut all);
                all.truncate(k);
                return all;
            }
            let mut chosen = DetHashSet::with_capacity_and_hasher(k * 2, FnvBuildHasher::default());
            let mut out = Vec::with_capacity(k);
            for j in (bound - k as u64)..bound {
                let t = rng.below(j + 1);
                let v = if chosen.contains(&t) { j } else { t };
                chosen.insert(v);
                out.push(v);
            }
            rng.shuffle(&mut out);
            out
        }
        let mut buf = Vec::new();
        for &(bound, k) in &[
            (64u64, 16usize),
            (100, 10),
            (16, 16),
            (1000, 999),
            (1000, 100),
            (10_000, 257),
            // The serving shape: 256 distinct of 1024 per n = 256 step.
            (1024, 256),
            // High collision: most Floyd draws hit a chosen value.
            (130, 97),
            (1 << 40, 100),
            (1, 1),
            (8, 0),
        ] {
            let mut ra = rng_from_seed(0xF10D ^ bound ^ k as u64);
            let mut rb = rng_from_seed(0xF10D ^ bound ^ k as u64);
            let want = reference(&mut ra, bound, k);
            rb.sample_distinct_into(bound, k, &mut buf);
            assert_eq!(buf, want, "bound={bound} k={k}");
            assert_eq!(
                ra.next_u64(),
                rb.next_u64(),
                "bound={bound} k={k}: generators must stay in lockstep"
            );
        }
    }

    #[test]
    fn fork_streams_differ() {
        let mut r = rng_from_seed(21);
        let mut a = r.fork();
        let mut b = r.fork();
        let va: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn chance_extremes() {
        let mut r = rng_from_seed(3);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
