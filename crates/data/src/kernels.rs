//! Chunked `u64`-word kernels shared by the dense [`crate::bitset::Bitset`]
//! and the bitmap containers of [`crate::rowset::CompressedBitmap`].
//!
//! Every loop is written as an explicit 4-word block (`u64x4`-style) with
//! independent accumulators, the shape LLVM autovectorizes on stable Rust
//! without `std::simd`: four independent popcount chains per iteration keep
//! the ALU ports busy, and the bounds-check-free `chunks_exact` bodies leave
//! the optimizer a straight-line vectorizable kernel. The scalar
//! one-word-at-a-time baselines these replaced live on in
//! [`crate::bitset::scalar`] for benchmarking and equivalence testing.

/// `Σ popcount(a & b)` over two equal-length word slices.
#[inline]
pub(crate) fn and_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut c0 = 0u64;
    let mut c1 = 0u64;
    let mut c2 = 0u64;
    let mut c3 = 0u64;
    let mut ita = a.chunks_exact(4);
    let mut itb = b.chunks_exact(4);
    for (wa, wb) in (&mut ita).zip(&mut itb) {
        c0 += (wa[0] & wb[0]).count_ones() as u64;
        c1 += (wa[1] & wb[1]).count_ones() as u64;
        c2 += (wa[2] & wb[2]).count_ones() as u64;
        c3 += (wa[3] & wb[3]).count_ones() as u64;
    }
    let mut rest = 0u64;
    for (wa, wb) in ita.remainder().iter().zip(itb.remainder()) {
        rest += (wa & wb).count_ones() as u64;
    }
    (c0 + c1 + c2 + c3 + rest) as usize
}

/// `Σ popcount(a | b)` over two equal-length word slices.
#[inline]
pub(crate) fn or_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut c0 = 0u64;
    let mut c1 = 0u64;
    let mut c2 = 0u64;
    let mut c3 = 0u64;
    let mut ita = a.chunks_exact(4);
    let mut itb = b.chunks_exact(4);
    for (wa, wb) in (&mut ita).zip(&mut itb) {
        c0 += (wa[0] | wb[0]).count_ones() as u64;
        c1 += (wa[1] | wb[1]).count_ones() as u64;
        c2 += (wa[2] | wb[2]).count_ones() as u64;
        c3 += (wa[3] | wb[3]).count_ones() as u64;
    }
    let mut rest = 0u64;
    for (wa, wb) in ita.remainder().iter().zip(itb.remainder()) {
        rest += (wa | wb).count_ones() as u64;
    }
    (c0 + c1 + c2 + c3 + rest) as usize
}

/// `Σ popcount(a & !b)` over two equal-length word slices.
#[inline]
pub(crate) fn andnot_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut c0 = 0u64;
    let mut c1 = 0u64;
    let mut c2 = 0u64;
    let mut c3 = 0u64;
    let mut ita = a.chunks_exact(4);
    let mut itb = b.chunks_exact(4);
    for (wa, wb) in (&mut ita).zip(&mut itb) {
        c0 += (wa[0] & !wb[0]).count_ones() as u64;
        c1 += (wa[1] & !wb[1]).count_ones() as u64;
        c2 += (wa[2] & !wb[2]).count_ones() as u64;
        c3 += (wa[3] & !wb[3]).count_ones() as u64;
    }
    let mut rest = 0u64;
    for (wa, wb) in ita.remainder().iter().zip(itb.remainder()) {
        rest += (wa & !wb).count_ones() as u64;
    }
    (c0 + c1 + c2 + c3 + rest) as usize
}

/// `(Σ popcount(a & b), Σ popcount(a | b))` fused in one pass — the Jaccard
/// (Eq. 9) kernel.
#[inline]
pub(crate) fn and_or_count(a: &[u64], b: &[u64]) -> (usize, usize) {
    debug_assert_eq!(a.len(), b.len());
    let mut i0 = 0u64;
    let mut i1 = 0u64;
    let mut u0 = 0u64;
    let mut u1 = 0u64;
    let mut ita = a.chunks_exact(4);
    let mut itb = b.chunks_exact(4);
    for (wa, wb) in (&mut ita).zip(&mut itb) {
        i0 += (wa[0] & wb[0]).count_ones() as u64 + (wa[1] & wb[1]).count_ones() as u64;
        i1 += (wa[2] & wb[2]).count_ones() as u64 + (wa[3] & wb[3]).count_ones() as u64;
        u0 += (wa[0] | wb[0]).count_ones() as u64 + (wa[1] | wb[1]).count_ones() as u64;
        u1 += (wa[2] | wb[2]).count_ones() as u64 + (wa[3] | wb[3]).count_ones() as u64;
    }
    let mut ir = 0u64;
    let mut ur = 0u64;
    for (wa, wb) in ita.remainder().iter().zip(itb.remainder()) {
        ir += (wa & wb).count_ones() as u64;
        ur += (wa | wb).count_ones() as u64;
    }
    ((i0 + i1 + ir) as usize, (u0 + u1 + ur) as usize)
}

/// Σ popcount over one word slice.
#[inline]
pub(crate) fn count(a: &[u64]) -> usize {
    let mut c0 = 0u64;
    let mut c1 = 0u64;
    let mut c2 = 0u64;
    let mut c3 = 0u64;
    let mut it = a.chunks_exact(4);
    for w in &mut it {
        c0 += w[0].count_ones() as u64;
        c1 += w[1].count_ones() as u64;
        c2 += w[2].count_ones() as u64;
        c3 += w[3].count_ones() as u64;
    }
    let mut rest = 0u64;
    for w in it.remainder() {
        rest += w.count_ones() as u64;
    }
    (c0 + c1 + c2 + c3 + rest) as usize
}

/// In-place `a &= b`.
#[inline]
pub(crate) fn and_in_place(a: &mut [u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    let mut ita = a.chunks_exact_mut(4);
    let mut itb = b.chunks_exact(4);
    for (wa, wb) in (&mut ita).zip(&mut itb) {
        wa[0] &= wb[0];
        wa[1] &= wb[1];
        wa[2] &= wb[2];
        wa[3] &= wb[3];
    }
    for (wa, wb) in ita.into_remainder().iter_mut().zip(itb.remainder()) {
        *wa &= wb;
    }
}

/// In-place `a &= b`, returning the resulting popcount from the same pass.
#[inline]
pub(crate) fn and_in_place_count(a: &mut [u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    let mut c0 = 0u64;
    let mut c1 = 0u64;
    let mut c2 = 0u64;
    let mut c3 = 0u64;
    let mut ita = a.chunks_exact_mut(4);
    let mut itb = b.chunks_exact(4);
    for (wa, wb) in (&mut ita).zip(&mut itb) {
        wa[0] &= wb[0];
        wa[1] &= wb[1];
        wa[2] &= wb[2];
        wa[3] &= wb[3];
        c0 += wa[0].count_ones() as u64;
        c1 += wa[1].count_ones() as u64;
        c2 += wa[2].count_ones() as u64;
        c3 += wa[3].count_ones() as u64;
    }
    let mut rest = 0u64;
    for (wa, wb) in ita.into_remainder().iter_mut().zip(itb.remainder()) {
        *wa &= wb;
        rest += wa.count_ones() as u64;
    }
    (c0 + c1 + c2 + c3 + rest) as usize
}

/// In-place `a |= b`.
#[inline]
pub(crate) fn or_in_place(a: &mut [u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    let mut ita = a.chunks_exact_mut(4);
    let mut itb = b.chunks_exact(4);
    for (wa, wb) in (&mut ita).zip(&mut itb) {
        wa[0] |= wb[0];
        wa[1] |= wb[1];
        wa[2] |= wb[2];
        wa[3] |= wb[3];
    }
    for (wa, wb) in ita.into_remainder().iter_mut().zip(itb.remainder()) {
        *wa |= wb;
    }
}

/// In-place `a &= !b`.
#[inline]
pub(crate) fn andnot_in_place(a: &mut [u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    let mut ita = a.chunks_exact_mut(4);
    let mut itb = b.chunks_exact(4);
    for (wa, wb) in (&mut ita).zip(&mut itb) {
        wa[0] &= !wb[0];
        wa[1] &= !wb[1];
        wa[2] &= !wb[2];
        wa[3] &= !wb[3];
    }
    for (wa, wb) in ita.into_remainder().iter_mut().zip(itb.remainder()) {
        *wa &= !wb;
    }
}

/// `true` iff `a & !b == 0` everywhere (subset test), with per-block early
/// exit.
#[inline]
pub(crate) fn is_subset(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut ita = a.chunks_exact(4);
    let mut itb = b.chunks_exact(4);
    for (wa, wb) in (&mut ita).zip(&mut itb) {
        let stray = (wa[0] & !wb[0]) | (wa[1] & !wb[1]) | (wa[2] & !wb[2]) | (wa[3] & !wb[3]);
        if stray != 0 {
            return false;
        }
    }
    ita.remainder()
        .iter()
        .zip(itb.remainder())
        .all(|(wa, wb)| wa & !wb == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(seed: u64, n: usize) -> Vec<u64> {
        // xorshift-ish deterministic filler
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            })
            .collect()
    }

    #[test]
    fn kernels_match_naive_at_all_tail_lengths() {
        for n in 0..19usize {
            let a = words(3, n);
            let b = words(5, n);
            let naive_and: usize = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x & y).count_ones() as usize)
                .sum();
            let naive_or: usize = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x | y).count_ones() as usize)
                .sum();
            let naive_diff: usize = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x & !y).count_ones() as usize)
                .sum();
            assert_eq!(and_count(&a, &b), naive_and, "n={n}");
            assert_eq!(or_count(&a, &b), naive_or, "n={n}");
            assert_eq!(andnot_count(&a, &b), naive_diff, "n={n}");
            assert_eq!(and_or_count(&a, &b), (naive_and, naive_or), "n={n}");
            assert_eq!(
                count(&a),
                a.iter().map(|x| x.count_ones() as usize).sum::<usize>()
            );

            let mut c = a.clone();
            and_in_place(&mut c, &b);
            assert_eq!(count(&c), naive_and);
            let mut c = a.clone();
            assert_eq!(and_in_place_count(&mut c, &b), naive_and);
            let mut c = a.clone();
            or_in_place(&mut c, &b);
            assert_eq!(count(&c), naive_or);
            let mut c = a.clone();
            andnot_in_place(&mut c, &b);
            assert_eq!(count(&c), naive_diff);
            assert!(is_subset(&c, &a));
            if naive_diff > 0 {
                assert!(!is_subset(&a, &b));
            }
        }
    }
}
