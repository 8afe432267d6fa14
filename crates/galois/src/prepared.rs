//! [`PreparedMatrix`]: a matrix pre-expanded into nibble-product tables
//! for repeated matrix–vector products against *changing* vectors.
//!
//! [`MulTable`] amortizes table construction over one
//! slice; a decode matrix is reused across millions of products, so here
//! the whole matrix is expanded once at construction. Layout is
//! *chunk-major*: output rows are grouped eight at a time (one 128-bit
//! register), and for each chunk, column `j`, nibble position `t` and
//! nibble value `x` the table stores the eight products
//! `M[chunk·8+lane][j] · (x << 4t)` packed as two `u64` words. A product
//! is then, per chunk: four table lookups per column, XOR-accumulated in
//! two registers, with one store at the end — no scratch, no allocation,
//! and no log/exp traffic.
//!
//! The two-`u64` SWAR accumulator is written so LLVM's SLP vectorizer
//! fuses it into 128-bit XORs on x86_64/aarch64; the code itself is
//! portable safe Rust, so `forced-scalar` builds run the identical
//! statements (XOR is exact and order-insensitive, so results are
//! bit-identical on every path — see the determinism argument in
//! [`crate::kernels`]).
//!
//! Partial products: a reader that needs only rows `r..r+k` of the
//! decode can ask for just those via [`PreparedMatrix::mul_rows_into`],
//! paying only for the 8-row chunks the range overlaps — the win that
//! makes IDA reads (one word = 4 symbols of a 12-symbol block) cheap.

use crate::{Gf16, Matrix, MulTable};

/// Words per (chunk, column, position, nibble) table row: 8 u16 lanes.
const LANE_WORDS: usize = 2;
/// Table rows per (chunk, column): 4 nibble positions × 16 values.
const COL_STRIDE: usize = 4 * 16 * LANE_WORDS;

/// A matrix expanded into chunk-major nibble tables (see module docs).
#[derive(Debug, Clone)]
pub struct PreparedMatrix {
    rows: usize,
    cols: usize,
    chunks: usize,
    /// Indexed `((chunk·cols + j)·4 + t)·16·2 + x·2 + word`.
    tables: Vec<u64>,
}

impl PreparedMatrix {
    /// Expand `m` into nibble tables (`rows.div_ceil(8) · cols` KiB-scale;
    /// tail-chunk lanes beyond `rows` stay zero and are never stored).
    pub fn from_matrix(m: &Matrix) -> PreparedMatrix {
        let (rows, cols) = (m.rows(), m.cols());
        let chunks = rows.div_ceil(8);
        let mut tables = vec![0u64; chunks * cols * COL_STRIDE];
        for i in 0..rows {
            let (chunk, lane) = (i / 8, i % 8);
            let (word, shift) = (lane / 4, (lane % 4) * 16);
            for j in 0..cols {
                let prods = MulTable::new(m[(i, j)]);
                for (t, plane) in prods.products().iter().enumerate() {
                    for (x, &v) in plane.iter().enumerate() {
                        let base =
                            (chunk * cols + j) * COL_STRIDE + (t * 16 + x) * LANE_WORDS + word;
                        tables[base] |= (v as u64) << shift;
                    }
                }
            }
        }
        PreparedMatrix {
            rows,
            cols,
            chunks,
            tables,
        }
    }

    /// Row count of the underlying matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count of the underlying matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The 8-row chunk product: two packed u64 words of output lanes.
    // lint: hot
    #[inline]
    fn chunk_product(&self, v: &[Gf16], chunk: usize) -> (u64, u64) {
        let mut a0 = 0u64;
        let mut a1 = 0u64;
        let mut base = chunk * self.cols * COL_STRIDE;
        for &x in v {
            let x = x.0 as usize;
            let i0 = base + (x & 15) * LANE_WORDS;
            let i1 = base + 32 + (x >> 4 & 15) * LANE_WORDS;
            let i2 = base + 64 + (x >> 8 & 15) * LANE_WORDS;
            let i3 = base + 96 + (x >> 12) * LANE_WORDS;
            a0 ^= self.tables[i0] ^ self.tables[i1] ^ self.tables[i2] ^ self.tables[i3];
            a1 ^= self.tables[i0 + 1]
                ^ self.tables[i1 + 1]
                ^ self.tables[i2 + 1]
                ^ self.tables[i3 + 1];
            base += COL_STRIDE;
        }
        (a0, a1)
    }

    /// `M · v` into caller-owned `out` (length `rows`), allocation-free.
    /// Bit-identical to [`Matrix::mul_vec_into`] on the same operands.
    // lint: hot
    pub fn mul_vec_into(&self, v: &[Gf16], out: &mut [Gf16]) {
        assert_eq!(v.len(), self.cols);
        assert_eq!(out.len(), self.rows);
        for chunk in 0..self.chunks {
            let (a0, a1) = self.chunk_product(v, chunk);
            let rows = &mut out[chunk * 8..self.rows.min(chunk * 8 + 8)];
            for (lane, o) in rows.iter_mut().enumerate() {
                let w = if lane < 4 { a0 } else { a1 };
                *o = Gf16((w >> ((lane & 3) * 16)) as u16);
            }
        }
    }

    /// Rows `row_start..row_start + out.len()` of `M · v`, paying only
    /// for the 8-row chunks that range overlaps.
    // lint: hot
    pub fn mul_rows_into(&self, v: &[Gf16], row_start: usize, out: &mut [Gf16]) {
        assert_eq!(v.len(), self.cols);
        assert!(row_start + out.len() <= self.rows);
        if out.is_empty() {
            return;
        }
        let first = row_start / 8;
        let last = (row_start + out.len() - 1) / 8;
        for chunk in first..=last {
            let (a0, a1) = self.chunk_product(v, chunk);
            let lo = row_start.max(chunk * 8);
            let hi = (row_start + out.len()).min(chunk * 8 + 8);
            for row in lo..hi {
                let lane = row & 7;
                let w = if lane < 4 { a0 } else { a1 };
                out[row - row_start] = Gf16((w >> ((lane & 3) * 16)) as u16);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simrng::{rng_from_seed, Rng};

    fn random_matrix(rng: &mut impl Rng, rows: usize, cols: usize) -> Matrix {
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = Gf16(rng.next_u64() as u16);
            }
        }
        m
    }

    #[test]
    fn prepared_product_matches_scalar_oracle() {
        let mut rng = rng_from_seed(0x9E9A);
        // Shapes straddling the 8-row chunk boundary, incl. IDA's 12×12
        // decode and 18×12 encode.
        for (rows, cols) in [(1, 1), (4, 3), (8, 8), (9, 2), (12, 12), (18, 12), (31, 5)] {
            let m = random_matrix(&mut rng, rows, cols);
            let p = PreparedMatrix::from_matrix(&m);
            assert_eq!((p.rows(), p.cols()), (rows, cols));
            for case in 0..32 {
                let v: Vec<Gf16> = (0..cols).map(|_| Gf16(rng.next_u64() as u16)).collect();
                let mut want = vec![Gf16::ZERO; rows];
                m.mul_vec_into(&v, &mut want);
                let mut got = vec![Gf16::ZERO; rows];
                p.mul_vec_into(&v, &mut got);
                assert_eq!(got, want, "{rows}x{cols} case {case}");
            }
        }
    }

    #[test]
    fn partial_rows_match_full_product() {
        let mut rng = rng_from_seed(0xA11);
        let m = random_matrix(&mut rng, 12, 12);
        let p = PreparedMatrix::from_matrix(&m);
        let v: Vec<Gf16> = (0..12).map(|_| Gf16(rng.next_u64() as u16)).collect();
        let mut full = vec![Gf16::ZERO; 12];
        p.mul_vec_into(&v, &mut full);
        for start in 0..12 {
            for len in 0..=(12 - start) {
                let mut part = vec![Gf16::ZERO; len];
                p.mul_rows_into(&v, start, &mut part);
                assert_eq!(part, &full[start..start + len], "start={start} len={len}");
            }
        }
    }

    #[test]
    fn vandermonde_roundtrip_through_prepared() {
        let mut rng = rng_from_seed(0xBEE);
        let enc = Matrix::vandermonde(9, 4);
        let p_enc = PreparedMatrix::from_matrix(&enc);
        for _ in 0..32 {
            let data: Vec<Gf16> = (0..4).map(|_| Gf16(rng.next_u64() as u16)).collect();
            let mut shares = vec![Gf16::ZERO; 9];
            p_enc.mul_vec_into(&data, &mut shares);
            assert_eq!(shares, enc.mul_vec(&data));
            let idx: Vec<usize> = rng
                .sample_distinct(9, 4)
                .into_iter()
                .map(|i| i as usize)
                .collect();
            let inv = enc.select_rows(&idx).inverse().unwrap();
            let p_inv = PreparedMatrix::from_matrix(&inv);
            let picked: Vec<Gf16> = idx.iter().map(|&i| shares[i]).collect();
            let mut back = vec![Gf16::ZERO; 4];
            p_inv.mul_vec_into(&picked, &mut back);
            assert_eq!(back, data);
        }
    }
}
