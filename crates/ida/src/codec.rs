//! The `b → d` dispersal codec (Rabin 1989), plus the decode-matrix
//! cache the flat data plane runs on.

use galois::{Gf16, Matrix, PreparedMatrix};
use simrng::DetHashMap;

/// Decode matrices cached by share-index set, with the scratch the cold
/// path inverts over.
///
/// Decoding needs the inverse of the `b × b` encode submatrix picked out
/// by the quorum's share indices. That inverse depends only on the *set*
/// of indices — not the data — and a store under a fixed unavailability
/// mask revisits a handful of sets forever (one per write-rotation
/// offset). The cache keys each inverse by the set's membership bitmask
/// and computes it at most once; steady-state decodes are a hash lookup
/// plus one `b × b` matrix–vector product, with zero allocations.
///
/// Cached inverses are stored *prepared* ([`PreparedMatrix`]): expanded
/// into nibble-product tables at insertion time, so every warm decode
/// runs the SIMD-friendly table kernel instead of scalar log/exp
/// multiplies. Preparation happens only on the (rare) cold path, never
/// per decode, and changes no result — the table product is
/// bit-identical to the scalar one (see `galois::kernels`).
///
/// Sizing: the healthy store touches at most `d + 1` distinct sets and a
/// faulted one a few more, so the table effectively never fills. The
/// `CACHE_CAP` clear-on-overflow bound only guards pathological
/// callers (adversarial quorum churn); eviction can never change a
/// decode result, only its cost. Share indices `≥ 128` fall back to the
/// uncached inversion path (they cannot occur with `d = Θ(log n)`).
#[derive(Debug, Clone, Default)]
pub struct DecodeCache {
    // FNV-keyed (simrng::hash): cache iteration and clear order can
    // never depend on process entropy.
    inverses: DetHashMap<u128, PreparedMatrix>,
    hits: u64,
    misses: u64,
    /// Selected encode rows (cold path input).
    sub: Matrix,
    /// Gauss–Jordan working copy.
    scratch: Matrix,
    /// Cold-path inverse before it is stored (or used directly when the
    /// index set is uncacheable).
    inv: Matrix,
    /// The quorum's first `b` `(index, value)` pairs, sorted by index
    /// (the cache's canonical quorum order).
    sel: Vec<(usize, Gf16)>,
    /// Share values of the canonicalized quorum.
    vals: Vec<Gf16>,
    /// Share indices of the canonicalized quorum.
    idx: Vec<usize>,
}

/// Cached inverses before a clear-on-overflow (see [`DecodeCache`]).
const CACHE_CAP: usize = 4096;

impl DecodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes served from a cached inverse.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Decodes (or warms) that had to invert.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Distinct share-index sets currently cached.
    pub fn len(&self) -> usize {
        self.inverses.len()
    }

    /// Whether no inverse has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.inverses.is_empty()
    }

    /// Membership bitmask of an index set; `None` when an index does not
    /// fit the key (uncacheable — cold path every time).
    fn mask_of(idx: &[usize]) -> Option<u128> {
        let mut mask = 0u128;
        for &i in idx {
            if i >= 128 {
                return None;
            }
            mask |= 1u128 << i;
        }
        Some(mask)
    }

    /// Ensure the inverse for `idx` (rows of `enc`) is cached; on an
    /// uncacheable set, leave it in `self.inv`. Returns the mask key.
    fn ensure(&mut self, enc: &Matrix, idx: &[usize]) -> Option<u128> {
        let mask = Self::mask_of(idx);
        if let Some(mask) = mask {
            if self.inverses.contains_key(&mask) {
                self.hits += 1;
                return Some(mask);
            }
        }
        self.misses += 1;
        enc.select_rows_into(idx, &mut self.sub);
        let ok = self.sub.invert_into(&mut self.scratch, &mut self.inv);
        assert!(ok, "Vandermonde rows are independent");
        if let Some(mask) = mask {
            if self.inverses.len() >= CACHE_CAP {
                self.inverses.clear();
            }
            self.inverses
                .insert(mask, PreparedMatrix::from_matrix(&self.inv));
        }
        mask
    }
}

/// An information-dispersal code: `b` data symbols recoded into `d ≥ b`
/// share symbols via a `d × b` Vandermonde matrix; **any** `b` shares
/// recover the data (every `b × b` submatrix of a Vandermonde matrix with
/// distinct evaluation points is invertible).
#[derive(Debug, Clone)]
pub struct IdaCode {
    b: usize,
    d: usize,
    enc: Matrix,
    /// The encode matrix expanded into nibble tables once at
    /// construction — every encode thereafter runs the table kernel.
    prep: PreparedMatrix,
}

impl IdaCode {
    /// A `b`-of-`d` code. Requires `1 ≤ b ≤ d ≤ 65535`.
    pub fn new(b: usize, d: usize) -> Self {
        assert!(b >= 1 && b <= d && d <= 65535, "need 1 <= b <= d <= 65535");
        let enc = Matrix::vandermonde(d, b);
        let prep = PreparedMatrix::from_matrix(&enc);
        IdaCode { b, d, enc, prep }
    }

    /// Data symbols per block.
    pub fn b(&self) -> usize {
        self.b
    }

    /// Share symbols per block.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Storage blowup `d/b` — constant by construction.
    pub fn blowup(&self) -> f64 {
        self.d as f64 / self.b as f64
    }

    /// Encode `b` data symbols into `d` shares.
    pub fn encode(&self, data: &[Gf16]) -> Vec<Gf16> {
        assert_eq!(data.len(), self.b);
        self.enc.mul_vec(data)
    }

    /// Encode into a caller-owned buffer (resized to `d` in place): the
    /// allocation-free twin of [`encode`](Self::encode).
    pub fn encode_into(&self, data: &[Gf16], out: &mut Vec<Gf16>) {
        assert_eq!(data.len(), self.b);
        out.clear();
        out.resize(self.d, Gf16::ZERO);
        self.prep.mul_vec_into(data, out);
    }

    /// Recover the data from any `≥ b` shares given as `(share_index,
    /// value)` pairs with distinct indices; the first `b` are used.
    /// Returns `None` if fewer than `b` shares are provided.
    pub fn decode(&self, shares: &[(usize, Gf16)]) -> Option<Vec<Gf16>> {
        if shares.len() < self.b {
            return None;
        }
        let idx: Vec<usize> = shares.iter().take(self.b).map(|&(i, _)| i).collect();
        debug_assert!(idx.iter().all(|&i| i < self.d), "share index out of range");
        let sub = self.enc.select_rows(&idx);
        let inv = sub.inverse().expect("Vandermonde rows are independent");
        let vals: Vec<Gf16> = shares.iter().take(self.b).map(|&(_, v)| v).collect();
        Some(inv.mul_vec(&vals))
    }

    /// [`decode`](Self::decode) over a [`DecodeCache`] and a caller-owned
    /// output buffer: identical results, but a warm decode performs no
    /// inversion and no allocation. Returns `false` if fewer than `b`
    /// shares are provided.
    ///
    /// The cache is keyed by the *set* of the first `b` share indices, so
    /// the quorum is canonicalized by sorting those `b` pairs by index
    /// before decoding. The recovered data is exactly [`decode`](Self::decode)'s:
    /// permuting the selected rows permutes the inverse identically
    /// (`(PS)⁻¹(Pv) = S⁻¹v`), and GF(2¹⁶) arithmetic is exact.
    pub fn decode_into(
        &self,
        shares: &[(usize, Gf16)],
        cache: &mut DecodeCache,
        out: &mut Vec<Gf16>,
    ) -> bool {
        let Some(mask) = self.prepare_quorum(shares, cache) else {
            return false;
        };
        out.clear();
        out.resize(self.b, Gf16::ZERO);
        match mask {
            Some(mask) => cache.inverses[&mask].mul_vec_into(&cache.vals, out),
            None => cache.inv.mul_vec_into(&cache.vals, out),
        }
        true
    }

    /// Decode only data symbols `row_start..row_start + out.len()` — the
    /// read path's shortcut: one variable needs 4 of the block's `b`
    /// symbols, and the prepared inverse can produce exactly those rows.
    /// Results are bit-identical to the corresponding slice of
    /// [`decode_into`](Self::decode_into)'s output; returns `false` if fewer than `b` shares
    /// are provided.
    // lint: hot
    pub fn decode_rows_into(
        &self,
        shares: &[(usize, Gf16)],
        cache: &mut DecodeCache,
        row_start: usize,
        out: &mut [Gf16],
    ) -> bool {
        assert!(row_start + out.len() <= self.b, "rows out of range");
        let Some(mask) = self.prepare_quorum(shares, cache) else {
            return false;
        };
        match mask {
            Some(mask) => cache.inverses[&mask].mul_rows_into(&cache.vals, row_start, out),
            None => {
                // Uncacheable set (share index ≥ 128): scalar partial
                // product over the freshly inverted matrix.
                for (k, o) in out.iter_mut().enumerate() {
                    let mut acc = Gf16::ZERO;
                    for (j, &v) in cache.vals.iter().enumerate() {
                        acc = acc + cache.inv[(row_start + k, j)].mul(v);
                    }
                    *o = acc;
                }
            }
        }
        true
    }

    /// Canonicalize the quorum (first `b` pairs, sorted by index) into
    /// `cache.{idx,vals}` and ensure its decode matrix exists. Returns
    /// `None` when fewer than `b` shares are provided; otherwise the
    /// cache key (`None` inside means uncacheable — inverse left in
    /// `cache.inv`).
    #[allow(clippy::option_option)] // outer: quorum viability, inner: cacheability
    fn prepare_quorum(
        &self,
        shares: &[(usize, Gf16)],
        cache: &mut DecodeCache,
    ) -> Option<Option<u128>> {
        if shares.len() < self.b {
            return None;
        }
        cache.sel.clear();
        cache.sel.extend_from_slice(&shares[..self.b]);
        cache.sel.sort_unstable_by_key(|&(i, _)| i);
        cache.idx.clear();
        cache.vals.clear();
        for &(i, v) in &cache.sel {
            debug_assert!(i < self.d, "share index out of range");
            cache.idx.push(i);
            cache.vals.push(v);
        }
        // Split the cache borrow: `ensure` mutates, then the inverse and
        // the gathered values are read side by side.
        let idx = std::mem::take(&mut cache.idx);
        let mask = cache.ensure(&self.enc, &idx);
        cache.idx = idx;
        Some(mask)
    }

    /// Precompute (and cache) the decode matrix for one share-index set —
    /// the store's construction-time warm-up, so steady-state traffic
    /// never pays a cold inversion.
    pub fn warm_decode(&self, idx: &[usize], cache: &mut DecodeCache) {
        assert_eq!(idx.len(), self.b, "a decode set has exactly b indices");
        cache.ensure(&self.enc, idx);
    }
}

/// Pack a machine word into four GF(2¹⁶) symbols (little-endian 16-bit
/// limbs).
pub fn word_to_symbols(w: i64) -> [Gf16; 4] {
    let u = w as u64;
    [
        Gf16((u & 0xFFFF) as u16),
        Gf16(((u >> 16) & 0xFFFF) as u16),
        Gf16(((u >> 32) & 0xFFFF) as u16),
        Gf16(((u >> 48) & 0xFFFF) as u16),
    ]
}

/// Inverse of [`word_to_symbols`].
pub fn symbols_to_word(s: &[Gf16]) -> i64 {
    debug_assert_eq!(s.len(), 4);
    let u = (s[0].0 as u64)
        | ((s[1].0 as u64) << 16)
        | ((s[2].0 as u64) << 32)
        | ((s[3].0 as u64) << 48);
    u as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{rng_from_seed, Rng};

    #[test]
    fn roundtrip_any_b_shares() {
        let code = IdaCode::new(4, 9);
        let data: Vec<Gf16> = [11u16, 22, 33, 44].iter().map(|&x| Gf16(x)).collect();
        let shares = code.encode(&data);
        assert_eq!(shares.len(), 9);
        let mut rng = rng_from_seed(5);
        for _ in 0..30 {
            let pick = rng.sample_distinct(9, 4);
            let quorum: Vec<(usize, Gf16)> = pick
                .iter()
                .map(|&i| (i as usize, shares[i as usize]))
                .collect();
            assert_eq!(code.decode(&quorum).unwrap(), data);
        }
    }

    #[test]
    fn too_few_shares_fails() {
        let code = IdaCode::new(4, 8);
        let data = vec![Gf16(1); 4];
        let shares = code.encode(&data);
        let quorum: Vec<(usize, Gf16)> = (0..3).map(|i| (i, shares[i])).collect();
        assert!(code.decode(&quorum).is_none());
    }

    #[test]
    fn b_equals_d_is_a_permutation_code() {
        let code = IdaCode::new(3, 3);
        let data: Vec<Gf16> = [7u16, 8, 9].iter().map(|&x| Gf16(x)).collect();
        let shares = code.encode(&data);
        let quorum: Vec<(usize, Gf16)> = shares.iter().copied().enumerate().collect();
        assert_eq!(code.decode(&quorum).unwrap(), data);
        assert!((code.blowup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn corrupted_share_changes_decode() {
        // IDA is an erasure code, not an error-correcting one: a silently
        // corrupted share in the quorum yields wrong data. (The schemes use
        // version stamps, not decoding, for consistency.)
        let code = IdaCode::new(4, 8);
        let data: Vec<Gf16> = [5u16, 6, 7, 8].iter().map(|&x| Gf16(x)).collect();
        let shares = code.encode(&data);
        let mut quorum: Vec<(usize, Gf16)> = (0..4).map(|i| (i, shares[i])).collect();
        quorum[2].1 = quorum[2].1 + Gf16::ONE;
        assert_ne!(code.decode(&quorum).unwrap(), data);
    }

    #[test]
    fn word_symbol_roundtrip_extremes() {
        for w in [0i64, 1, -1, i64::MAX, i64::MIN, 0x0123_4567_89AB_CDEF] {
            assert_eq!(symbols_to_word(&word_to_symbols(w)), w);
        }
    }

    #[test]
    fn randomized_roundtrip() {
        // Random data blocks and random quorums, reproducible from the seed.
        let mut rng = rng_from_seed(0xC0DEC);
        let code = IdaCode::new(8, 12);
        for case in 0..64 {
            let data: Vec<Gf16> = (0..8).map(|_| Gf16(rng.next_u64() as u16)).collect();
            let shares = code.encode(&data);
            let pick = rng.sample_distinct(12, 8);
            let quorum: Vec<(usize, Gf16)> = pick
                .iter()
                .map(|&i| (i as usize, shares[i as usize]))
                .collect();
            assert_eq!(
                code.decode(&quorum).unwrap(),
                data,
                "case {case}, quorum {pick:?}"
            );
        }
    }

    /// Property: for random data and random quorums — including post-fault
    /// quorums drawn only from surviving share indices — `decode_into`
    /// over the cache equals the cold-path `decode`, on both the first
    /// (inverting) and every subsequent (cached) encounter of a set.
    #[test]
    fn cached_decode_matches_cold_decode_randomized() {
        let mut rng = rng_from_seed(0xCAC4E);
        let code = IdaCode::new(8, 12);
        let mut cache = DecodeCache::new();
        let mut out = Vec::new();
        for case in 0..256 {
            let data: Vec<Gf16> = (0..8).map(|_| Gf16(rng.next_u64() as u16)).collect();
            let shares = code.encode(&data);
            // Kill up to d - b = 4 share indices, then draw the quorum
            // from the survivors (the store's post-fault situation).
            let ndead = rng.index(5);
            let dead = rng.sample_distinct(12, ndead);
            let alive: Vec<usize> = (0..12).filter(|&i| !dead.contains(&(i as u64))).collect();
            let pick = rng.sample_distinct(alive.len() as u64, 8);
            let quorum: Vec<(usize, Gf16)> = pick
                .iter()
                .map(|&k| (alive[k as usize], shares[alive[k as usize]]))
                .collect();
            let cold = code.decode(&quorum).expect("b shares suffice");
            assert!(code.decode_into(&quorum, &mut cache, &mut out));
            assert_eq!(out, cold, "case {case} (cold or first cached)");
            assert_eq!(out, data, "case {case} recovers the data");
            // Second decode of the same set must come from the cache.
            let hits = cache.hits();
            assert!(code.decode_into(&quorum, &mut cache, &mut out));
            assert_eq!(out, cold, "case {case} (cache hit)");
            assert_eq!(cache.hits(), hits + 1, "case {case} hit the cache");
        }
        assert!(!cache.is_empty());
        assert!(cache.hits() >= 256, "every second decode hit the cache");
    }

    /// Property: `decode_rows_into` equals the matching slice of the full
    /// decode, for every (start, len) and for both cacheable and
    /// uncacheable quorums, healthy or post-fault.
    #[test]
    fn partial_decode_matches_full_decode() {
        let mut rng = rng_from_seed(0x9A47);
        let code = IdaCode::new(8, 12);
        let mut cache = DecodeCache::new();
        let mut full = Vec::new();
        for case in 0..64 {
            let data: Vec<Gf16> = (0..8).map(|_| Gf16(rng.next_u64() as u16)).collect();
            let shares = code.encode(&data);
            let ndead = rng.index(5);
            let dead = rng.sample_distinct(12, ndead);
            let alive: Vec<usize> = (0..12).filter(|&i| !dead.contains(&(i as u64))).collect();
            let pick = rng.sample_distinct(alive.len() as u64, 8);
            let quorum: Vec<(usize, Gf16)> = pick
                .iter()
                .map(|&k| (alive[k as usize], shares[alive[k as usize]]))
                .collect();
            assert!(code.decode_into(&quorum, &mut cache, &mut full));
            for start in 0..8 {
                for len in 0..=(8 - start) {
                    let mut part = vec![Gf16::ZERO; len];
                    assert!(code.decode_rows_into(&quorum, &mut cache, start, &mut part));
                    assert_eq!(
                        part,
                        &full[start..start + len],
                        "case {case} rows {start}+{len}"
                    );
                }
            }
        }
    }

    /// Share indices ≥ 128 don't fit the cache key: both decode entry
    /// points must still produce the data via the uncached inverse.
    #[test]
    fn uncacheable_quorum_decodes_on_both_entry_points() {
        let code = IdaCode::new(4, 130);
        let data: Vec<Gf16> = [21u16, 22, 23, 24].iter().map(|&x| Gf16(x)).collect();
        let shares = code.encode(&data);
        let idx = [0usize, 64, 128, 129];
        let quorum: Vec<(usize, Gf16)> = idx.iter().map(|&i| (i, shares[i])).collect();
        let mut cache = DecodeCache::new();
        let mut out = Vec::new();
        assert!(code.decode_into(&quorum, &mut cache, &mut out));
        assert_eq!(out, data);
        assert!(cache.is_empty(), "uncacheable sets are never stored");
        for start in 0..4 {
            for len in 0..=(4 - start) {
                let mut part = vec![Gf16::ZERO; len];
                assert!(code.decode_rows_into(&quorum, &mut cache, start, &mut part));
                assert_eq!(part, &data[start..start + len], "rows {start}+{len}");
            }
        }
    }

    #[test]
    fn warm_decode_precomputes_the_set() {
        let code = IdaCode::new(4, 9);
        let mut cache = DecodeCache::new();
        code.warm_decode(&[1, 3, 4, 7], &mut cache);
        assert_eq!(cache.len(), 1);
        let data: Vec<Gf16> = [5u16, 6, 7, 8].iter().map(|&x| Gf16(x)).collect();
        let shares = code.encode(&data);
        let quorum: Vec<(usize, Gf16)> =
            [1usize, 3, 4, 7].iter().map(|&i| (i, shares[i])).collect();
        let mut out = Vec::new();
        assert!(code.decode_into(&quorum, &mut cache, &mut out));
        assert_eq!(out, data);
        assert_eq!(cache.hits(), 1, "the warmed set is a hit");
    }

    #[test]
    fn encode_into_matches_encode() {
        let code = IdaCode::new(4, 9);
        let data: Vec<Gf16> = [11u16, 22, 33, 44].iter().map(|&x| Gf16(x)).collect();
        let mut out = Vec::new();
        code.encode_into(&data, &mut out);
        assert_eq!(out, code.encode(&data));
        // Reuse does not disturb the result.
        code.encode_into(&data, &mut out);
        assert_eq!(out, code.encode(&data));
    }

    #[test]
    fn too_few_shares_fail_decode_into() {
        let code = IdaCode::new(4, 8);
        let mut cache = DecodeCache::new();
        let mut out = vec![Gf16(9)];
        assert!(!code.decode_into(&[(0, Gf16(1))], &mut cache, &mut out));
    }

    #[test]
    fn randomized_word_roundtrip() {
        let mut rng = rng_from_seed(0x303D);
        for _ in 0..256 {
            let w = rng.next_u64() as i64;
            assert_eq!(symbols_to_word(&word_to_symbols(w)), w, "w={w}");
        }
    }
}
