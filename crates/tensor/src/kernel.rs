//! Cache-blocked, panel-packed GEMM microkernels — the compute core
//! every `Matrix` product and every fused gather+GEMM path runs on.
//!
//! # Architecture (DESIGN.md §14)
//!
//! A BLIS-style decomposition, hermetic (no external BLAS):
//!
//! * **B packing** — the right operand is packed once per product into
//!   `NR`-wide column panels laid out k-major ([`PackedB`]), so the
//!   microkernel streams it with unit stride whatever the logical
//!   orientation (`B`, `Bᵀ`) was. Ragged right edges are zero-padded;
//!   the pad lanes are never stored back.
//! * **A packing** — left-operand rows are packed `MR` at a time into a
//!   k-major panel. The pack stage is where *gather fusion* happens: an
//!   [`ARows`] source can hand out plain rows, gathered rows
//!   (`src[idx[i]]`), concatenated rows (`[src[idx[i]] | right[i]]`),
//!   strided transposed columns, or dequantized [`QMatrix`] rows — the
//!   GEMM itself never knows, and no intermediate matrix is
//!   materialized.
//! * **Microkernel** — a fixed `MR×NR` register tile accumulated over
//!   the whole k extent with one accumulator per output element, k
//!   ascending. Written as plain slice loops over `[[f32; NR]; MR]`
//!   so LLVM autovectorizes the `NR` lanes.
//!
//! # Determinism
//!
//! Every output element is the sum `Σ_k a[i,k]·b[k,j]` accumulated in
//! ascending `k` with a single accumulator — exactly the naive i-k-j
//! triple loop. Blocking changes only *which* elements a thread
//! computes, never the order within one element, so results are
//! bit-identical across `DS_PAR_THREADS`, `DS_GEMM_BLOCK`, and the
//! panel pad amount (pads occupy unstored lanes only). The proptests in
//! this module assert 0-ULP equality against [`matmul_ref`].

use crate::dtype::QMatrix;
use crate::matrix::Matrix;
use ds_simgpu::par;
use std::sync::OnceLock;

/// Rows per register tile (A panel height).
pub const MR: usize = 4;
/// Columns per register tile (B panel width).
pub const NR: usize = 16;

/// Default rows per parallel work unit.
const ROW_BLOCK_DEFAULT: usize = 64;

/// Parses a `DS_GEMM_BLOCK` value: unset is the default, `0` clamps to
/// 1, and a malformed value (the empty string included) panics naming
/// the variable and the value.
fn parse_row_block(var: Option<&str>) -> usize {
    var.map_or(ROW_BLOCK_DEFAULT, |v| {
        v.parse::<usize>()
            .unwrap_or_else(|_| panic!("DS_GEMM_BLOCK must be a non-negative integer, got {v:?}"))
            .max(1)
    })
}

/// Rows of the output each parallel work unit owns. Chunk boundaries —
/// not the thread count — define the work units, so this knob trades
/// scheduling grain for locality without affecting results. Overridable
/// with `DS_GEMM_BLOCK` (clamped to at least 1).
pub fn row_block() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| parse_row_block(std::env::var("DS_GEMM_BLOCK").ok().as_deref()))
}

/// A source of left-operand rows for the packing stage. `write_row`
/// materializes logical row `i` (length `k`) straight into a panel
/// buffer — the only place gather/concat/transpose/dequant happen.
pub trait ARows: Sync {
    /// Logical row count (the GEMM `m`).
    fn rows(&self) -> usize;
    /// Shared dimension (the GEMM `k`).
    fn k(&self) -> usize;
    /// Writes row `i` into `dst` (`dst.len() == self.k()`).
    fn write_row(&self, i: usize, dst: &mut [f32]);
}

/// Plain row-major rows of a borrowed matrix.
pub struct PlainRows<'a> {
    data: &'a [f32],
    k: usize,
}

impl ARows for PlainRows<'_> {
    fn rows(&self) -> usize {
        if self.k == 0 {
            0
        } else {
            self.data.len() / self.k
        }
    }
    fn k(&self) -> usize {
        self.k
    }
    #[inline]
    fn write_row(&self, i: usize, dst: &mut [f32]) {
        dst.copy_from_slice(&self.data[i * self.k..(i + 1) * self.k]);
    }
}

/// Gathered rows: logical row `i` is `src[idx[i]]`.
pub struct GatherRows<'a> {
    src: &'a Matrix,
    idx: &'a [u32],
}

impl ARows for GatherRows<'_> {
    fn rows(&self) -> usize {
        self.idx.len()
    }
    fn k(&self) -> usize {
        self.src.cols()
    }
    #[inline]
    fn write_row(&self, i: usize, dst: &mut [f32]) {
        dst.copy_from_slice(self.src.row(self.idx[i] as usize));
    }
}

/// Concatenated rows: logical row `i` is `[src[idx[i]] | right[i]]` —
/// the GraphSAGE self‖neighbor-mean concat, without the hstack.
pub struct ConcatRows<'a> {
    src: &'a Matrix,
    idx: &'a [u32],
    right: &'a Matrix,
}

impl ARows for ConcatRows<'_> {
    fn rows(&self) -> usize {
        self.idx.len()
    }
    fn k(&self) -> usize {
        self.src.cols() + self.right.cols()
    }
    #[inline]
    fn write_row(&self, i: usize, dst: &mut [f32]) {
        let c = self.src.cols();
        dst[..c].copy_from_slice(self.src.row(self.idx[i] as usize));
        dst[c..].copy_from_slice(self.right.row(i));
    }
}

/// Columns of a row-major matrix as rows: logical row `i` is column `i`
/// of a `(k × m)` matrix — the `Aᵀ·B` orientation.
pub struct TransposedCols<'a> {
    data: &'a [f32],
    /// Rows of the underlying matrix (the GEMM `k`).
    k: usize,
    /// Columns of the underlying matrix (the GEMM `m`).
    m: usize,
}

impl ARows for TransposedCols<'_> {
    fn rows(&self) -> usize {
        self.m
    }
    fn k(&self) -> usize {
        self.k
    }
    #[inline]
    fn write_row(&self, i: usize, dst: &mut [f32]) {
        for (kk, d) in dst.iter_mut().enumerate() {
            *d = self.data[kk * self.m + i];
        }
    }
}

/// Columns of a *gathered* matrix as rows: logical row `i` is column
/// `i` of `src[idx]` — the fused `gather(src, idx)ᵀ · G` weight-grad
/// orientation.
pub struct GatherTransposedCols<'a> {
    src: &'a Matrix,
    idx: &'a [u32],
}

impl ARows for GatherTransposedCols<'_> {
    fn rows(&self) -> usize {
        self.src.cols()
    }
    fn k(&self) -> usize {
        self.idx.len()
    }
    #[inline]
    fn write_row(&self, i: usize, dst: &mut [f32]) {
        for (r, d) in dst.iter_mut().enumerate() {
            *d = self.src.row(self.idx[r] as usize)[i];
        }
    }
}

/// Dequantized rows of a [`QMatrix`]: the pack stage converts straight
/// from the quantized storage, so quantized caches feed the GEMM
/// without ever materializing an f32 matrix.
pub struct QuantRows<'a> {
    src: &'a QMatrix,
    idx: Option<&'a [u32]>,
}

impl ARows for QuantRows<'_> {
    fn rows(&self) -> usize {
        self.idx.map_or(self.src.rows(), <[u32]>::len)
    }
    fn k(&self) -> usize {
        self.src.cols()
    }
    #[inline]
    fn write_row(&self, i: usize, dst: &mut [f32]) {
        let r = self.idx.map_or(i, |idx| idx[i] as usize);
        self.src.write_row_f32(r, dst);
    }
}

/// The right operand packed into `NR`-wide, k-major column panels.
/// Panel `jp` holds columns `jp·NR .. jp·NR+NR` (zero-padded past `n`)
/// as `panel[kk·NR + j]`.
pub struct PackedB {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// Packs a logical `(k × n)` right operand given an element
    /// accessor `get(kk, j)`. The accessor indirection is what lets the
    /// `A·Bᵀ` orientation pack the transpose for free.
    pub fn pack(k: usize, n: usize, get: impl Fn(usize, usize) -> f32) -> PackedB {
        let npanels = n.div_ceil(NR);
        let mut panels = vec![0.0f32; npanels * k * NR];
        for jp in 0..npanels {
            let base = jp * k * NR;
            let jmax = (n - jp * NR).min(NR);
            for kk in 0..k {
                for j in 0..jmax {
                    panels[base + kk * NR + j] = get(kk, jp * NR + j);
                }
            }
        }
        PackedB { k, n, panels }
    }

    /// Packs a row-major `(k × n)` matrix.
    pub fn from_rows(b: &Matrix) -> PackedB {
        let n = b.cols();
        let data = b.data();
        PackedB::pack(b.rows(), n, |kk, j| data[kk * n + j])
    }

    /// Packs the transpose of a row-major `(n × k)` matrix, i.e. the
    /// logical right operand of `A·Bᵀ`.
    pub fn from_cols(b: &Matrix) -> PackedB {
        let k = b.cols();
        let data = b.data();
        PackedB::pack(k, b.rows(), |kk, j| data[j * k + kk])
    }

    #[inline]
    fn panel(&self, jp: usize) -> &[f32] {
        &self.panels[jp * self.k * NR..(jp + 1) * self.k * NR]
    }
}

/// The `MR×NR` register-tile microkernel: accumulates
/// `acc[i][j] += ap[kk·MR+i] · bp[kk·NR+j]` for `kk` ascending over the
/// full k extent. One accumulator per output element, plain slice
/// loops — LLVM keeps `acc` in vector registers and unrolls the `NR`
/// lane loop.
#[inline]
fn microkernel(k: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    for kk in 0..k {
        let b = &bp[kk * NR..kk * NR + NR];
        let a = &ap[kk * MR..kk * MR + MR];
        for (acc_i, &ai) in acc.iter_mut().zip(a) {
            for (o, &bj) in acc_i.iter_mut().zip(b) {
                *o += ai * bj;
            }
        }
    }
}

/// The blocked GEMM driver: `out = A · B` with `A` described by an
/// [`ARows`] source and `B` already packed. Parallel over
/// [`row_block`]-row output chunks; within a chunk, rows are packed
/// `MR` at a time and each A panel is swept across all B panels while
/// hot in cache.
pub fn gemm(a: &impl ARows, b: &PackedB) -> Matrix {
    let (m, k, n) = (a.rows(), a.k(), b.n);
    assert_eq!(k, b.k, "gemm shared-dimension mismatch");
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return out;
    }
    let mb = row_block();
    let npanels = n.div_ceil(NR);
    par::chunk_map_mut(out.data_mut(), mb * n, |blk, out_chunk| {
        let i0 = blk * mb;
        let rows = out_chunk.len() / n;
        // One reusable A panel + row scratch per chunk. Rows past the
        // edge stay zero and feed only unstored accumulator lanes.
        let mut ap = vec![0.0f32; k * MR];
        let mut rowbuf = vec![0.0f32; k];
        for ip in 0..rows.div_ceil(MR) {
            let ir0 = ip * MR;
            let irn = (rows - ir0).min(MR);
            if irn < MR {
                ap.fill(0.0);
            }
            for i in 0..irn {
                a.write_row(i0 + ir0 + i, &mut rowbuf);
                for (kk, &v) in rowbuf.iter().enumerate() {
                    ap[kk * MR + i] = v;
                }
            }
            for jp in 0..npanels {
                let mut acc = [[0.0f32; NR]; MR];
                microkernel(k, &ap, b.panel(jp), &mut acc);
                let j0 = jp * NR;
                let jn = (n - j0).min(NR);
                for i in 0..irn {
                    let row = &mut out_chunk[(ir0 + i) * n + j0..(ir0 + i) * n + j0 + jn];
                    row.copy_from_slice(&acc[i][..jn]);
                }
            }
        }
    });
    out
}

/// `A · B` — `(m×k)·(k×n)`.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    gemm(
        &PlainRows {
            data: a.data(),
            k: a.cols(),
        },
        &PackedB::from_rows(b),
    )
}

/// Output-row cutoff below which `Aᵀ·B` runs as rank-1 accumulation
/// instead of the packed microkernel. Weight-gradient GEMMs are
/// `in_dim × batch`-tall-and-thin: packing `A` k-major walks the whole
/// `k` extent once per output row (an O(m·k) strided — or gathered —
/// traversal) which dominates the flops when `m` is small. The outer
/// path reads each source row exactly once.
const TN_OUTER_MAX_M: usize = 64;

/// Small-m `Aᵀ·B`: one pass over `k`, a rank-1 update per source row
/// into an L1-resident `m×n` accumulator. Per output element the sum
/// runs `k`-ascending with a single accumulator — exactly the packed
/// microkernel's order, so results are bit-identical to [`gemm`].
/// Serial, hence trivially invariant to `DS_PAR_THREADS`.
fn tn_outer<'a, F: Fn(usize) -> &'a [f32]>(k: usize, m: usize, b: &Matrix, arow: F) -> Matrix {
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    let od = out.data_mut();
    for r in 0..k {
        let a = arow(r);
        let brow = b.row(r);
        for (i, &ai) in a.iter().enumerate() {
            for (o, &bv) in od[i * n..i * n + n].iter_mut().zip(brow) {
                *o += ai * bv;
            }
        }
    }
    out
}

/// `Aᵀ · B` — `(k×m)ᵀ·(k×n) = m×n` (weight gradients).
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn shape mismatch");
    if a.cols() <= TN_OUTER_MAX_M {
        return tn_outer(a.rows(), a.cols(), b, |r| a.row(r));
    }
    gemm(
        &TransposedCols {
            data: a.data(),
            k: a.rows(),
            m: a.cols(),
        },
        &PackedB::from_rows(b),
    )
}

/// `A · Bᵀ` — `(m×k)·(n×k)ᵀ = m×n` (input gradients).
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt shape mismatch");
    gemm(
        &PlainRows {
            data: a.data(),
            k: a.cols(),
        },
        &PackedB::from_cols(b),
    )
}

/// `A · B[r0..r1]ᵀ` — the `A·Bᵀ` product against a row *slice* of `B`,
/// without materializing the slice. Each output element is identical to
/// the corresponding element of the full product, so callers can split
/// a concatenated weight matrix (e.g. GraphSAGE's `[W_self; W_agg]`)
/// into its two input-gradient halves with no hsplit copy.
pub fn matmul_nt_rows(a: &Matrix, b: &Matrix, r0: usize, r1: usize) -> Matrix {
    assert!(r0 <= r1 && r1 <= b.rows(), "matmul_nt_rows bad row range");
    assert_eq!(a.cols(), b.cols(), "matmul_nt_rows shape mismatch");
    let k = b.cols();
    let data = b.data();
    gemm(
        &PlainRows {
            data: a.data(),
            k: a.cols(),
        },
        &PackedB::pack(k, r1 - r0, |kk, j| data[(r0 + j) * k + kk]),
    )
}

/// Fused gather+GEMM: `src[idx] · w` without materializing the gather.
pub fn gather_matmul(src: &Matrix, idx: &[u32], w: &Matrix) -> Matrix {
    assert_eq!(src.cols(), w.rows(), "gather_matmul shape mismatch");
    gemm(&GatherRows { src, idx }, &PackedB::from_rows(w))
}

/// Fused gather+concat+GEMM: `[src[idx] | right] · w` — the GraphSAGE
/// forward product, with neither the gather nor the hstack
/// materialized. `right` must have `idx.len()` rows.
pub fn gather_concat_matmul(src: &Matrix, idx: &[u32], right: &Matrix, w: &Matrix) -> Matrix {
    assert_eq!(right.rows(), idx.len(), "gather_concat_matmul row mismatch");
    assert_eq!(
        src.cols() + right.cols(),
        w.rows(),
        "gather_concat_matmul shape mismatch"
    );
    gemm(&ConcatRows { src, idx, right }, &PackedB::from_rows(w))
}

/// Fused transposed gather+GEMM: `src[idx]ᵀ · g` — the weight-gradient
/// product of a gathered input, fused the same way.
pub fn gather_matmul_tn(src: &Matrix, idx: &[u32], g: &Matrix) -> Matrix {
    assert_eq!(idx.len(), g.rows(), "gather_matmul_tn shape mismatch");
    if src.cols() <= TN_OUTER_MAX_M {
        // Each gathered row is touched once, instead of once per
        // output row as the k-major pack would.
        return tn_outer(idx.len(), src.cols(), g, |r| src.row(idx[r] as usize));
    }
    gemm(&GatherTransposedCols { src, idx }, &PackedB::from_rows(g))
}

/// Fused dequantize+gather+GEMM: `qsrc[idx] · w` where `qsrc` stores
/// f16 or int8 rows — dequantization happens in the pack stage.
pub fn gather_matmul_q(qsrc: &QMatrix, idx: &[u32], w: &Matrix) -> Matrix {
    assert_eq!(qsrc.cols(), w.rows(), "gather_matmul_q shape mismatch");
    gemm(
        &QuantRows {
            src: qsrc,
            idx: Some(idx),
        },
        &PackedB::from_rows(w),
    )
}

/// Dequantize+GEMM over all rows of a [`QMatrix`].
pub fn matmul_q(qsrc: &QMatrix, w: &Matrix) -> Matrix {
    assert_eq!(qsrc.cols(), w.rows(), "matmul_q shape mismatch");
    gemm(
        &QuantRows {
            src: qsrc,
            idx: None,
        },
        &PackedB::from_rows(w),
    )
}

/// Naive i-k-j reference GEMM — the 0-ULP oracle the packed kernels
/// are tested (and benchmarked) against. Accumulation order per output
/// element is identical to the packed path: `k` ascending, one
/// accumulator.
pub fn matmul_ref(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul shape mismatch");
    let (m, n) = (a.rows(), b.cols());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let out_row = &mut out.data_mut()[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b.data()[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Single-pass left-to-right fold over a row — the shared row-reduction
/// helper: the online softmax pass and the quantizer's per-block
/// max-abs scan both run on it, with a fixed evaluation order so
/// results are bit-stable.
#[inline]
pub fn row_fold<S, F: FnMut(S, f32) -> S>(row: &[f32], init: S, mut f: F) -> S {
    let mut s = init;
    for &x in row {
        s = f(s, x);
    }
    s
}

/// Mutable counterpart of [`row_fold`]: one left-to-right pass that may
/// rewrite each element while threading state — the in-place row sweeps
/// (softmax rescale/normalize) run on it.
#[inline]
pub fn row_fold_mut<S, F: FnMut(S, &mut f32) -> S>(row: &mut [f32], init: S, mut f: F) -> S {
    let mut s = init;
    for x in row {
        s = f(s, x);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_testkit::prelude::*;

    #[test]
    fn row_block_parsing_clamps_zero_and_rejects_malformed() {
        assert_eq!(parse_row_block(None), ROW_BLOCK_DEFAULT);
        assert_eq!(parse_row_block(Some("0")), 1);
        assert_eq!(parse_row_block(Some("128")), 128);
        for bad in ["", "two", "-1", "1.5", " 4"] {
            let err = std::panic::catch_unwind(|| parse_row_block(Some(bad))).unwrap_err();
            let msg = err.downcast_ref::<String>().expect("formatted panic");
            assert!(
                msg.contains("DS_GEMM_BLOCK") && msg.contains(&format!("{bad:?}")),
                "{msg}"
            );
        }
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = ds_rng::Rng::seed_from_u64(seed);
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect(),
        )
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    #[test]
    fn packed_matches_reference_on_awkward_shapes() {
        // Shapes straddling every blocking edge: < MR, < NR, exact
        // multiples, one past a multiple, and bigger than a row block.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 16),
            (5, 17, 33),
            (67, 19, 31),
            (130, 64, 48),
        ] {
            let a = rand_matrix(m, k, m as u64 * 31 + n as u64);
            let b = rand_matrix(k, n, k as u64 * 17 + 3);
            assert_bits_eq(&matmul(&a, &b), &matmul_ref(&a, &b));
        }
    }

    props! {
        #![cases(24)]

        fn blocked_gemm_is_zero_ulp_vs_reference(
            m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000
        ) {
            let a = rand_matrix(m, k, seed);
            let b = rand_matrix(k, n, seed ^ 0xabcd);
            let packed = matmul(&a, &b);
            let reference = matmul_ref(&a, &b);
            for (x, y) in packed.data().iter().zip(reference.data()) {
                prop_assert!(x.to_bits() == y.to_bits(), "{x} vs {y}");
            }
        }

        fn fused_gather_matches_materialized(
            rows in 1usize..50, m in 1usize..30, k in 1usize..20, n in 1usize..20, seed in 0u64..1000
        ) {
            let src = rand_matrix(m, k, seed);
            let w = rand_matrix(k, n, seed ^ 0x77);
            let mut rng = ds_rng::Rng::seed_from_u64(seed ^ 0xfe);
            let idx: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..m as u32)).collect();
            let fused = gather_matmul(&src, &idx, &w);
            let unfused = matmul(&src.gather_rows(&idx), &w);
            for (x, y) in fused.data().iter().zip(unfused.data()) {
                prop_assert!(x.to_bits() == y.to_bits(), "{x} vs {y}");
            }
        }

        fn fused_concat_matches_materialized(
            rows in 1usize..40, m in 1usize..30, k in 1usize..12, n in 1usize..16, seed in 0u64..1000
        ) {
            let src = rand_matrix(m, k, seed);
            let right = rand_matrix(rows, k, seed ^ 0x11);
            let w = rand_matrix(2 * k, n, seed ^ 0x22);
            let mut rng = ds_rng::Rng::seed_from_u64(seed ^ 0x33);
            let idx: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..m as u32)).collect();
            let fused = gather_concat_matmul(&src, &idx, &right, &w);
            let unfused = src.gather_rows(&idx).hstack(&right).matmul(&w);
            for (x, y) in fused.data().iter().zip(unfused.data()) {
                prop_assert!(x.to_bits() == y.to_bits(), "{x} vs {y}");
            }
        }

        fn fused_gather_tn_matches_materialized(
            rows in 1usize..40, m in 1usize..30, k in 1usize..12, n in 1usize..16, seed in 0u64..1000
        ) {
            let src = rand_matrix(m, k, seed);
            let g = rand_matrix(rows, n, seed ^ 0x44);
            let mut rng = ds_rng::Rng::seed_from_u64(seed ^ 0x55);
            let idx: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..m as u32)).collect();
            let fused = gather_matmul_tn(&src, &idx, &g);
            let unfused = src.gather_rows(&idx).matmul_tn(&g);
            for (x, y) in fused.data().iter().zip(unfused.data()) {
                prop_assert!(x.to_bits() == y.to_bits(), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn orientations_match_explicit_transposes() {
        let a = rand_matrix(23, 9, 1);
        let b = rand_matrix(23, 13, 2);
        assert_bits_eq(&matmul_tn(&a, &b), &matmul_ref(&a.transpose(), &b));
        let c = rand_matrix(23, 9, 3);
        let d = rand_matrix(13, 9, 4);
        assert_bits_eq(&matmul_nt(&c, &d), &matmul_ref(&c, &d.transpose()));
    }

    #[test]
    fn empty_shapes_are_handled() {
        let a = Matrix::zeros(0, 5);
        let b = rand_matrix(5, 7, 9);
        let out = matmul(&a, &b);
        assert_eq!((out.rows(), out.cols()), (0, 7));
        let e = gather_matmul(&b, &[], &rand_matrix(7, 3, 10));
        assert_eq!((e.rows(), e.cols()), (0, 3));
    }

    #[test]
    fn row_fold_runs_left_to_right() {
        let row = [3.0f32, 1.0, 2.0];
        let order = row_fold(&row, Vec::new(), |mut v: Vec<f32>, x| {
            v.push(x);
            v
        });
        assert_eq!(order, vec![3.0, 1.0, 2.0]);
    }
}
