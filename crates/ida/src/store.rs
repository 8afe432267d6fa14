//! Schuster's IDA-backed shared memory.
//!
//! The `m` variables are grouped into blocks of `b/4` variables (each
//! variable is four GF(2¹⁶) symbols), every block is recoded into `d`
//! shares, and share `i` of a block lives in a distinct memory module.
//! Accesses use quorums of `w = (d+b)/2` shares with version stamps:
//!
//! * **write**: read a quorum, recover the block at its newest version,
//!   modify the variable, re-encode, and write the new shares (with version
//!   + 1) to a quorum;
//! * **read**: read a quorum; two quorums intersect in
//!   `2·(d+b)/2 − d = b` shares, so at least `b` of the touched shares
//!   carry the newest version — exactly enough to decode.
//!
//! Storage blowup is `d/b` (constant); work per access is `Θ(d)` share
//! touches, i.e. `Θ(log n)` — the trade-off the paper points out.

use crate::codec::{symbols_to_word, word_to_symbols, DecodeCache, IdaCode};

/// Reusable scratch threaded through the store's read/write path — the
/// IDA analogue of `cr-core`'s `ProtocolWorkspace`. Owned by the caller
/// (one per scheme/session), it carries the decode-matrix cache and every
/// buffer an access touches, so a warm store performs **zero heap
/// allocations per access** (asserted by `tests/alloc_steady_state.rs`).
#[derive(Debug, Clone, Default)]
pub struct IdaWorkspace {
    /// Decode matrices keyed by share-index set (see [`DecodeCache`]).
    cache: DecodeCache,
    /// Share indices the quorum touched, in deterministic probe order.
    touched: Vec<usize>,
    /// The touched shares carrying the newest version.
    current: Vec<(usize, galois::Gf16)>,
    /// Decoded block data (then mutated in place by writes).
    data: Vec<galois::Gf16>,
    /// Re-encoded shares (write path).
    enc: Vec<galois::Gf16>,
}

impl IdaWorkspace {
    /// An empty workspace; buffers grow to steady-state capacity over the
    /// first access and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode-matrix cache statistics `(cached_sets, hits, misses)` —
    /// E15/E16 diagnostics and test hooks.
    pub fn cache_stats(&self) -> (usize, u64, u64) {
        (self.cache.len(), self.cache.hits(), self.cache.misses())
    }

    /// Share indices the most recent access's quorum touched, in
    /// deterministic probe order. The congestion accounting above the
    /// store reads this instead of re-deriving the quorum — the store
    /// already walked it. A failed access (no quorum) leaves the shares
    /// it probed before giving up, which is exactly what a lost access
    /// is charged for.
    pub fn touched(&self) -> &[usize] {
        &self.touched
    }
}

/// Cost of one access, for the E8 experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdaAccessStats {
    /// Shares read or written.
    pub shares_touched: u64,
    /// Distinct memory modules contacted.
    pub modules_touched: u64,
    /// Field operations spent encoding/decoding (symbol multiplies).
    pub field_ops: u64,
}

impl IdaAccessStats {
    fn add(&mut self, other: IdaAccessStats) {
        self.shares_touched += other.shares_touched;
        self.modules_touched += other.modules_touched;
        self.field_ops += other.field_ops;
    }
}

/// One dispersed block: `d` shares, values and version stamps kept in
/// separate arrays so the hot version scan (find the newest stamp in a
/// quorum) walks a dense `u64` slice instead of striding over pairs.
#[derive(Debug, Clone)]
struct Block {
    vals: Vec<galois::Gf16>,
    vers: Vec<u64>,
    /// Rotation offset so successive writes hit different stale shares.
    write_rotation: usize,
    /// Plaintext mirror: the block's data as of version [`Self::data_ver`]
    /// (writes record what they encoded; all-zero at version 0 matches the
    /// all-zero shares). When a quorum's newest version equals `data_ver`
    /// *and* carries enough current shares to decode, the decode's result
    /// is already known bit-for-bit — shares at version `v` are exactly
    /// `enc(data_v)` and the code is lossless — so the hot path serves
    /// from the mirror instead of running the matrix product. Stale or
    /// ahead-of-quorum mirrors (possible only under faults) fail the
    /// version check and fall back to a real decode, preserving fault
    /// semantics exactly.
    data: Vec<galois::Gf16>,
    /// Version the mirror reflects.
    data_ver: u64,
}

/// The IDA-backed shared memory.
#[derive(Debug, Clone)]
pub struct SchusterStore {
    code: IdaCode,
    vars: usize,
    vars_per_block: usize,
    /// `⌊2³² / vars_per_block⌋` — `locate`'s division runs as a multiply
    /// plus one fixup (the divisor is a runtime value the compiler can't
    /// strength-reduce, and `locate` runs once per access).
    vpb_recip: u64,
    modules: usize,
    module_stride: usize,
    blocks: Vec<Block>,
    total_stats: IdaAccessStats,
    /// Workspace backing the convenience (`read`/`write`) entry points.
    /// The flat data plane threads its own via [`Self::read_in`] /
    /// [`Self::write_in`]; this one stays untouched there.
    scratch: Option<Box<IdaWorkspace>>,
}

impl SchusterStore {
    /// A store for `vars` variables across `modules` modules with a
    /// `b`-of-`d` code. `b` must be a multiple of 4 (4 symbols per word)
    /// and `d ≤ modules` (shares of one block must live in distinct
    /// modules); `d + b` must be even so the quorum size is integral.
    pub fn new(vars: usize, modules: usize, b: usize, d: usize) -> Self {
        assert!(
            b >= 4 && b.is_multiple_of(4),
            "b must be a positive multiple of 4"
        );
        assert!(
            (d + b).is_multiple_of(2),
            "d + b must be even for integral quorums"
        );
        assert!(
            d <= modules,
            "a block's {d} shares need distinct modules, only {modules} exist"
        );
        assert!(
            vars <= u32::MAX as usize,
            "locate's reciprocal needs v < 2^32"
        );
        let code = IdaCode::new(b, d);
        let vars_per_block = b / 4;
        let nblocks = vars.div_ceil(vars_per_block);
        // All-zero data encodes to all-zero shares (linearity), version 0.
        let blocks = (0..nblocks)
            .map(|_| Block {
                vals: vec![galois::Gf16::ZERO; d],
                vers: vec![0; d],
                write_rotation: 0,
                data: vec![galois::Gf16::ZERO; b],
                data_ver: 0,
            })
            .collect();
        let module_stride = (modules / d).max(1);
        SchusterStore {
            code,
            vars,
            vars_per_block,
            vpb_recip: (1u64 << 32) / vars_per_block as u64,
            modules,
            module_stride,
            blocks,
            total_stats: IdaAccessStats::default(),
            scratch: None,
        }
    }

    /// Precompute every decode matrix a healthy (fault-free) store can
    /// need into `ws`'s cache, so steady-state traffic never pays a cold
    /// inversion — not even on a write-rotation offset it has yet to
    /// meet. A healthy access touches shares `0..q`; the newest-version
    /// shares within that quorum are the last write's rotated window
    /// `[s, s+q) mod d` (or every touched share on a never-written
    /// block), so the decode sets are exactly: the first `b` of `0..q`,
    /// and for each rotation `s` the first `b` of `[0, q) ∩ [s, s+q)`.
    /// That is at most `d + 1` inversions, once per workspace.
    ///
    /// Post-fault quorums shift to surviving shares and are cached on
    /// first encounter instead.
    pub fn prewarm_decode(&self, ws: &mut IdaWorkspace) {
        let d = self.code.d();
        let b = self.code.b();
        let q = self.quorum();
        let mut idx: Vec<usize> = Vec::with_capacity(b);
        // Never-written block: every touched share is at version 0.
        idx.extend(0..b);
        self.code.warm_decode(&idx, &mut ws.cache);
        for s in 0..d {
            idx.clear();
            for i in 0..q {
                // Is touched share i inside the window [s, s+q) mod d?
                if (i + d - s) % d < q {
                    idx.push(i);
                    if idx.len() == b {
                        break;
                    }
                }
            }
            debug_assert_eq!(idx.len(), b, "quorum intersection holds b shares");
            self.code.warm_decode(&idx, &mut ws.cache);
        }
    }

    /// Number of variables.
    pub fn size(&self) -> usize {
        self.vars
    }

    /// Quorum size `(d+b)/2`.
    pub fn quorum(&self) -> usize {
        (self.code.d() + self.code.b()) / 2
    }

    /// Shares per block `d`.
    pub fn shares(&self) -> usize {
        self.code.d()
    }

    /// Variables stored per block (`b/4`).
    pub fn vars_per_block(&self) -> usize {
        self.vars_per_block
    }

    /// Storage blowup `d/b`.
    pub fn blowup(&self) -> f64 {
        self.code.blowup()
    }

    /// Cumulative access statistics.
    pub fn total_stats(&self) -> IdaAccessStats {
        self.total_stats
    }

    /// The module holding share `i` of block `blk`.
    pub fn module_of_share(&self, blk: usize, i: usize) -> usize {
        share_module(blk, i, self.module_stride, self.modules)
    }

    // lint: hot
    #[inline]
    fn locate(&self, v: usize) -> (usize, usize) {
        assert!(v < self.vars, "variable {v} out of range");
        // Reciprocal multiply: the estimate is `⌊v/vpb⌋` or one less
        // (error < v/2³² < 1), so a single fixup makes it exact.
        let mut blk = ((v as u64 * self.vpb_recip) >> 32) as usize;
        let mut off = v - blk * self.vars_per_block;
        if off >= self.vars_per_block {
            blk += 1;
            off -= self.vars_per_block;
        }
        debug_assert_eq!(
            (blk, off),
            (v / self.vars_per_block, v % self.vars_per_block)
        );
        (blk, off)
    }

    /// Gather a quorum of block `blk`'s shares into `ws.touched`,
    /// excluding any modules flagged in `unavailable` (an empty slice
    /// means every module is up — the fast path, which skips all
    /// share→module arithmetic because the first `q` shares are the
    /// quorum by construction). Returns `(newest version stamp, number
    /// of touched shares at that version)`, or `None` if no quorum is
    /// reachable. The share *values* are not copied out here — the
    /// mirror fast path never needs them; a decode fetches them with
    /// [`Self::fill_current`]. Allocation-free once `ws` is warm.
    // lint: hot
    fn gather_quorum(
        &self,
        blk: usize,
        unavailable: &[bool],
        ws: &mut IdaWorkspace,
    ) -> Option<(u64, usize)> {
        let d = self.code.d();
        let q = self.quorum();
        let block = &self.blocks[blk];
        // Touch the first q available shares (deterministic order).
        ws.touched.clear();
        if unavailable.is_empty() {
            ws.touched.extend(0..q);
        } else {
            // Share i's module, stepped by the stride instead of taken
            // `% modules` per share.
            let step = self.module_stride % self.modules;
            let mut module = blk % self.modules;
            for i in 0..d {
                debug_assert_eq!(module, self.module_of_share(blk, i));
                if !unavailable.get(module).copied().unwrap_or(false) {
                    ws.touched.push(i);
                    if ws.touched.len() == q {
                        break;
                    }
                }
                module += step;
                if module >= self.modules {
                    module -= self.modules;
                }
            }
            if ws.touched.len() < q {
                return None; // too many modules down: no quorum
            }
        }
        let mut newest = 0u64;
        let mut n_current = 0usize;
        for &i in &ws.touched {
            let v = block.vers[i];
            if v > newest {
                newest = v;
                n_current = 1;
            } else if v == newest {
                n_current += 1;
            }
        }
        debug_assert!(
            n_current >= self.code.b(),
            "quorum intersection must contain b current shares"
        );
        Some((newest, n_current))
    }

    /// Copy the touched shares carrying `newest` into `ws.current` — the
    /// decode path's input, split out of [`Self::gather_quorum`] so the
    /// mirror fast path skips the copies.
    // lint: hot
    fn fill_current(&self, blk: usize, newest: u64, ws: &mut IdaWorkspace) {
        let block = &self.blocks[blk];
        ws.current.clear();
        ws.current.extend(
            ws.touched
                .iter()
                .filter(|&&i| block.vers[i] == newest)
                .map(|&i| (i, block.vals[i])),
        );
    }

    /// Per-quorum access cost for the E8 cost model. The read path's
    /// partial decode computes only 4 of the `b` output symbols, but the
    /// model keeps charging the full `b × b` product — the counters are
    /// a deterministic output surface and describe the *scheme*, not the
    /// kernel shortcut.
    fn quorum_stats(&self) -> IdaAccessStats {
        let q = self.quorum() as u64;
        IdaAccessStats {
            shares_touched: q,
            modules_touched: q,
            field_ops: (self.code.b() * self.code.b()) as u64, // decode matrix-vector
        }
    }

    /// Read variable `v` (convenience; uses the store's own workspace).
    pub fn read(&mut self, v: usize) -> (i64, IdaAccessStats) {
        self.read_with_unavailable(v, &[])
            .expect("all modules available")
    }

    /// Read with some modules unavailable (fault injection), through the
    /// store's own workspace: `None` when no quorum survives.
    pub fn read_with_unavailable(
        &mut self,
        v: usize,
        unavailable: &[bool],
    ) -> Option<(i64, IdaAccessStats)> {
        let mut ws = self.scratch.take().unwrap_or_default();
        let r = self.read_in(v, unavailable, &mut ws);
        self.scratch = Some(ws);
        r
    }

    /// Read variable `v` over a caller-owned workspace — the flat data
    /// plane's entry point. `unavailable[j]` excludes module `j` from the
    /// quorum (an empty slice means every module is up); `None` when no
    /// quorum survives.
    // lint: hot
    pub fn read_in(
        &mut self,
        v: usize,
        unavailable: &[bool],
        ws: &mut IdaWorkspace,
    ) -> Option<(i64, IdaAccessStats)> {
        let (blk, off) = self.locate(v);
        let (newest, n_current) = self.gather_quorum(blk, unavailable, ws)?;
        let block = &self.blocks[blk];
        let word = if block.data_ver == newest && n_current >= self.code.b() {
            // The plaintext mirror is at the quorum's version and the
            // quorum could decode (≥ b current shares): the decode's
            // output is the mirror, bit-for-bit. Serve it directly.
            symbols_to_word(&block.data[off * 4..off * 4 + 4])
        } else {
            // A read needs one variable = 4 symbols: decode just those
            // rows.
            self.fill_current(blk, newest, ws);
            let mut w = [galois::Gf16::ZERO; 4];
            if !self
                .code
                .decode_rows_into(&ws.current, &mut ws.cache, off * 4, &mut w)
            {
                return None;
            }
            symbols_to_word(&w)
        };
        let stats = self.quorum_stats();
        self.total_stats.add(stats);
        Some((word, stats))
    }

    /// Write variable `v` (convenience; uses the store's own workspace).
    pub fn write(&mut self, v: usize, value: i64) -> IdaAccessStats {
        self.write_with_unavailable(v, value, &[])
            .expect("all modules available")
    }

    /// Write with some modules unavailable, through the store's own
    /// workspace; `None` when no quorum survives.
    pub fn write_with_unavailable(
        &mut self,
        v: usize,
        value: i64,
        unavailable: &[bool],
    ) -> Option<IdaAccessStats> {
        let mut ws = self.scratch.take().unwrap_or_default();
        let r = self.write_in(v, value, unavailable, &mut ws);
        self.scratch = Some(ws);
        r
    }

    /// Write variable `v` over a caller-owned workspace — the flat data
    /// plane's entry point; `None` when no quorum survives.
    // lint: hot
    pub fn write_in(
        &mut self,
        v: usize,
        value: i64,
        unavailable: &[bool],
        ws: &mut IdaWorkspace,
    ) -> Option<IdaAccessStats> {
        let (blk, off) = self.locate(v);
        let (ver, n_current) = self.gather_quorum(blk, unavailable, ws)?;
        // A write re-encodes the whole block: recover its data, from the
        // plaintext mirror when it matches the quorum's version (and the
        // quorum could decode — same condition under which the decode
        // below succeeds), via the full decode otherwise.
        if self.blocks[blk].data_ver == ver && n_current >= self.code.b() {
            ws.data.clear();
            ws.data.extend_from_slice(&self.blocks[blk].data);
        } else {
            self.fill_current(blk, ver, ws);
            if !self
                .code
                .decode_into(&ws.current, &mut ws.cache, &mut ws.data)
            {
                return None;
            }
        }
        let mut stats = self.quorum_stats();
        ws.data[off * 4..off * 4 + 4].copy_from_slice(&word_to_symbols(value));
        self.code.encode_into(&ws.data, &mut ws.enc);
        stats.field_ops += (self.code.d() * self.code.b()) as u64;
        // Write a quorum of shares at version+1, starting at a rotating
        // offset so staleness spreads across share indices.
        let d = self.code.d();
        let q = self.quorum();
        // Locals: the `&mut` block borrow below forbids `&self`.
        let (stride, modules) = (self.module_stride, self.modules);
        let block = &mut self.blocks[blk];
        let start = block.write_rotation;
        block.write_rotation = if block.write_rotation + 1 == d {
            0
        } else {
            block.write_rotation + 1
        };
        if unavailable.is_empty() {
            // Fast path: every module is up, so the rotated window
            // [start, start+q) is written as-is — no module arithmetic.
            for k in 0..q {
                let i = if start + k >= d {
                    start + k - d
                } else {
                    start + k
                };
                block.vals[i] = ws.enc[i];
                block.vers[i] = ver + 1;
            }
        } else {
            // The rotated walk steps each share's module by the stride
            // (see `gather_quorum`), back to the base when i wraps to 0.
            let (base, step) = (blk % modules, stride % modules);
            let mut module = share_module(blk, start, stride, modules);
            let mut written = 0;
            for k in 0..d {
                let i = if start + k >= d {
                    start + k - d
                } else {
                    start + k
                };
                if i == 0 {
                    module = base;
                }
                debug_assert_eq!(module, share_module(blk, i, stride, modules));
                let dead = unavailable.get(module).copied().unwrap_or(false);
                module += step;
                if module >= modules {
                    module -= modules;
                }
                if dead {
                    continue;
                }
                block.vals[i] = ws.enc[i];
                block.vers[i] = ver + 1;
                written += 1;
                if written == q {
                    break;
                }
            }
            if written < q {
                return None;
            }
        }
        // Record what this version's shares encode (a failed write above
        // leaves the mirror at its old version, so a later quorum that
        // still resolves to the old version keeps matching it).
        block.data.copy_from_slice(&ws.data);
        block.data_ver = ver + 1;
        stats.shares_touched += q as u64;
        stats.modules_touched += q as u64;
        self.total_stats.add(stats);
        Some(stats)
    }
}

/// Share placement — the one formula mapping `(block, share_index)` to a
/// module. `SchusterStore::module_of_share` routes through here, and the
/// stepped share walks of the read and write paths debug-assert against
/// it, so reads and writes cannot drift apart.
#[inline]
fn share_module(blk: usize, i: usize, stride: usize, modules: usize) -> usize {
    (blk + i * stride) % modules
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{rng_from_seed, Rng};

    fn store() -> SchusterStore {
        // b=8 (2 vars/block), d=12, 32 modules.
        SchusterStore::new(64, 32, 8, 12)
    }

    #[test]
    fn fresh_store_reads_zero() {
        let mut s = store();
        for v in [0usize, 1, 17, 63] {
            assert_eq!(s.read(v).0, 0);
        }
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = store();
        s.write(5, 123456789);
        s.write(4, -42); // same block as 5
        assert_eq!(s.read(5).0, 123456789);
        assert_eq!(s.read(4).0, -42);
        assert_eq!(s.read(6).0, 0); // different block untouched
    }

    #[test]
    fn repeated_writes_latest_wins() {
        let mut s = store();
        for i in 0..40 {
            s.write(9, i * 1000);
            assert_eq!(s.read(9).0, i * 1000, "iteration {i}");
        }
    }

    #[test]
    fn quorum_cost_is_d_plus_b_ish() {
        let mut s = store();
        let (_, rstats) = s.read(0);
        assert_eq!(rstats.shares_touched, 10); // (12+8)/2
        let wstats = s.write(0, 1);
        // write = recover quorum + write quorum
        assert_eq!(wstats.shares_touched, 20);
    }

    #[test]
    fn blowup_is_constant() {
        let s = store();
        assert!((s.blowup() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn survives_module_failures_up_to_margin() {
        let mut s = store();
        s.write(10, 777);
        // (d - q) = 2 modules may die with a quorum still guaranteed.
        let mut dead = vec![false; 32];
        // Kill the first two modules of variable 10's block.
        let blk = 10 / 2;
        dead[s.module_of_share(blk, 0)] = true;
        dead[s.module_of_share(blk, 1)] = true;
        let got = s.read_with_unavailable(10, &dead).expect("quorum survives");
        assert_eq!(got.0, 777);
    }

    #[test]
    fn too_many_failures_lose_quorum() {
        let mut s = store();
        s.write(10, 777);
        let blk = 10 / 2;
        let mut dead = vec![false; 32];
        for i in 0..3 {
            // d - q + 1 = 3 failures: quorum impossible.
            dead[s.module_of_share(blk, i)] = true;
        }
        assert!(s.read_with_unavailable(10, &dead).is_none());
    }

    #[test]
    fn randomized_against_reference() {
        let mut s = SchusterStore::new(128, 64, 8, 12);
        let mut reference = vec![0i64; 128];
        let mut rng = rng_from_seed(99);
        for _ in 0..500 {
            let v = rng.index(128);
            if rng.chance(0.5) {
                let val = rng.next_u64() as i64;
                s.write(v, val);
                reference[v] = val;
            } else {
                assert_eq!(s.read(v).0, reference[v]);
            }
        }
    }

    #[test]
    fn mirror_and_decode_paths_agree_under_changing_masks() {
        // Alternate healthy and faulted phases so accesses keep crossing
        // between the plaintext-mirror fast path and the real decode
        // (stale-mirror) path; every read must match a plain reference.
        let mut s = SchusterStore::new(128, 64, 8, 12);
        let mut ws = IdaWorkspace::new();
        s.prewarm_decode(&mut ws);
        let mut reference = vec![0i64; 128];
        let mut rng = rng_from_seed(0x3148);
        let healthy = vec![false; 64];
        for round in 0..40 {
            // New mask each round: up to d - q = 2 dead modules.
            let mut dead = vec![false; 64];
            let ndead = rng.index(3);
            for m in rng.sample_distinct(64, ndead) {
                dead[m as usize] = true;
            }
            for step in 0..50 {
                let mask: &[bool] = if step % 2 == 0 { &dead } else { &healthy };
                let v = rng.index(128);
                if rng.chance(0.5) {
                    let val = rng.next_u64() as i64;
                    if s.write_in(v, val, mask, &mut ws).is_some() {
                        reference[v] = val;
                    }
                } else if let Some((got, _)) = s.read_in(v, mask, &mut ws) {
                    assert_eq!(got, reference[v], "round {round} step {step} var {v}");
                }
            }
        }
    }

    #[test]
    fn distinct_modules_per_block() {
        let s = SchusterStore::new(64, 32, 8, 12);
        for blk in 0..32 {
            let mods: std::collections::HashSet<usize> =
                (0..12).map(|i| s.module_of_share(blk, i)).collect();
            assert_eq!(mods.len(), 12, "block {blk} shares collide in a module");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn bad_b_rejected() {
        let _ = SchusterStore::new(16, 16, 6, 10);
    }

    #[test]
    fn workspace_path_equals_convenience_path() {
        let mut a = store();
        let mut b = store();
        let mut ws = IdaWorkspace::new();
        b.prewarm_decode(&mut ws);
        let mut rng = rng_from_seed(0x1DA);
        for _ in 0..300 {
            let v = rng.index(64);
            if rng.chance(0.5) {
                let val = rng.next_u64() as i64;
                assert_eq!(a.write(v, val), b.write_in(v, val, &[], &mut ws).unwrap());
            } else {
                assert_eq!(a.read(v), b.read_in(v, &[], &mut ws).unwrap());
            }
        }
        assert_eq!(a.total_stats(), b.total_stats());
    }

    #[test]
    fn prewarm_covers_all_healthy_decode_sets() {
        // After prewarm, fault-free traffic — across every write-rotation
        // offset — never misses the decode-matrix cache again.
        let mut s = store();
        let mut ws = IdaWorkspace::new();
        s.prewarm_decode(&mut ws);
        let (sets, _, warm_misses) = ws.cache_stats();
        assert!(sets >= 2, "prewarm cached the healthy decode sets");
        let mut rng = rng_from_seed(0x1DB);
        // > d writes per block so the rotation wraps.
        for step in 0..600 {
            let v = rng.index(64);
            if rng.chance(0.6) {
                s.write_in(v, step as i64, &[], &mut ws).unwrap();
            } else {
                s.read_in(v, &[], &mut ws).unwrap();
            }
        }
        let (_, hits, misses) = ws.cache_stats();
        assert_eq!(misses, warm_misses, "healthy traffic never inverts");
        assert!(hits > 0);
    }

    #[test]
    fn faulted_quorums_cache_on_first_encounter() {
        let mut s = store();
        let mut ws = IdaWorkspace::new();
        s.prewarm_decode(&mut ws);
        s.write_in(10, 777, &[], &mut ws).unwrap();
        let blk = 10 / 2;
        let mut dead = vec![false; 32];
        dead[s.module_of_share(blk, 0)] = true;
        dead[s.module_of_share(blk, 1)] = true;
        let got = s.read_in(10, &dead, &mut ws).expect("quorum survives");
        assert_eq!(got.0, 777);
        let (_, _, misses) = ws.cache_stats();
        // The shifted quorum was new once...
        s.read_in(10, &dead, &mut ws).unwrap();
        let (_, _, misses2) = ws.cache_stats();
        assert_eq!(misses2, misses, "...and cached thereafter");
    }
}
