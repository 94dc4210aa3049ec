//! In-tree SIMD kernel shim: safe wrappers over two x86 vector kernels
//! that only exist as `core::arch` intrinsics.
//!
//! The workspace forbids unsafe code everywhere business logic lives,
//! but two hot loops are bottlenecked on per-byte work that a vector
//! unit does sixteen or more bytes at a time:
//!
//! - **GF(2^8) multiply-fold** for the Reed–Solomon encoder: split each
//!   byte into nibbles and look both halves up in 16-entry product
//!   tables with one byte shuffle (`pshufb`) each.
//! - **CRC32 folding** for every fragment, parity block, wire frame and
//!   journal record: carry-less multiplication (`pclmulqdq`) folds four
//!   128-bit lanes of input forward by 64 bytes per step, then a Barrett
//!   reduction brings the remainder down to 32 bits.
//!
//! This shim confines the `unsafe` exactly like `shims/epoll` confines
//! syscalls: feature-gated `#[target_feature]` functions guarded by
//! runtime detection, with a fully safe public surface. Each public
//! kernel returns how much of its input it handled — `0` on targets or
//! CPUs without the needed unit, in which case the caller runs its
//! portable kernel instead. The tail shorter than one vector is always
//! left to the caller.
//!
//! [`gf8_mul_fold`] folds `c · src` into `dst` given the two nibble
//! product tables for `c` (`lo[n] = c·n`, `hi[n] = c·(n<<4)`; the caller
//! owns the field arithmetic).
//!
//! [`crc32_fold`] advances a reflected IEEE CRC32 register over a prefix
//! of its input; the caller owns the initial and final inversion and
//! finishes the tail with its table-driven loop.

#![deny(unsafe_op_in_unsafe_fn)]

/// Advances the raw (uninverted) reflected CRC32 register `state` — IEEE
/// 802.3 polynomial `0x04c11db7`, bit-reversed `0xedb88320` — over a
/// prefix of `data`, and returns the new register with the number of
/// bytes consumed.
///
/// The consumed count is `0` for inputs shorter than 64 bytes and on
/// targets or CPUs without `pclmulqdq` and SSE4.1; otherwise it is
/// `data.len()` rounded down to a multiple of 16. The caller feeds
/// `data[consumed..]` through its portable loop starting from the
/// returned register, so the result equals a byte-at-a-time CRC bit for
/// bit.
pub fn crc32_fold(state: u32, data: &[u8]) -> (u32, usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if data.len() >= 64
            && std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: both features were just detected at runtime.
            return unsafe { x86::crc32_fold_pclmul(state, data) };
        }
    }
    let _ = data;
    (state, 0)
}

/// Folds `c · src[i]` into `dst[i]` for a prefix of `src`, using the
/// nibble product tables `lo` and `hi` (GF(2^8) multiplication is
/// GF(2)-linear, so `c·s = c·(s & 0x0f) ⊕ c·(s & 0xf0)`). Returns the
/// number of bytes processed: a multiple of the vector width, `0` when
/// no suitable SIMD unit exists. Never touches `dst` beyond
/// `min(dst.len(), src.len())`.
pub fn gf8_mul_fold(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) -> usize {
    let n = dst.len().min(src.len());
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 feature was just detected at runtime.
            return unsafe { x86::mul_fold_avx2(&mut dst[..n], &src[..n], lo, hi) };
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            // SAFETY: the SSSE3 feature was just detected at runtime.
            return unsafe { x86::mul_fold_ssse3(&mut dst[..n], &src[..n], lo, hi) };
        }
    }
    let _ = (n, lo, hi);
    0
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    // CRC32 fold constants for the bit-reflected IEEE polynomial, from
    // Intel's "Fast CRC Computation for Generic Polynomials Using
    // PCLMULQDQ" (and Linux's crc32-pclmul): each is `x^e mod P(x)`
    // shifted left by 32, bit-reflected, then shifted left by one so a
    // reflected carry-less product lands aligned.
    /// `x^(4·128+32) mod P`: folds a lane forward over four lanes.
    const K1: i64 = 0x1_5444_2bd4;
    /// `x^(4·128-32) mod P`.
    const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32) mod P`: folds a lane forward over one lane.
    const K3: i64 = 0x1_7519_97d0;
    /// `x^(128-32) mod P`.
    const K4: i64 = 0x0_ccaa_009e;
    /// `x^64 mod P`: the 96 → 64 bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// `P(x)` itself, reflected, with its `x^32` term.
    const P_X: i64 = 0x1_db71_0641;
    /// Barrett constant `floor(x^64 / P(x))`, reflected.
    const MU: i64 = 0x1_f701_1641;

    /// Loads one 16-byte lane.
    #[inline(always)]
    fn load(lane: &[u8; 16]) -> __m128i {
        // SAFETY: `lane` is exactly 16 readable bytes; the load is
        // unaligned.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// Carries `acc` forward over the distance `d` its constants in `k`
    /// encode and adds it into `next`: multiplies each 64-bit half of
    /// `acc` by its constant and xors both products into `next`. The
    /// result is 128 bits, congruent modulo `P` to `acc · x^d ⊕ next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// # Safety
    ///
    /// The caller must have verified `pclmulqdq` and SSE4.1 support at
    /// runtime. Inputs shorter than 64 bytes consume nothing.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub unsafe fn crc32_fold_pclmul(state: u32, data: &[u8]) -> (u32, usize) {
        // Typed lanes let the loops below run without bounds checks.
        let (lanes, _) = data.as_chunks::<16>();
        let Some((first, rest)) = lanes.split_first_chunk::<4>() else {
            return (state, 0);
        };
        let (blocks, singles) = rest.as_chunks::<4>();
        // Four independent lanes hide the multiplier's latency. The
        // running register enters as the low 32 bits of the first lane.
        let mut x3 = _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(state as i32));
        let mut x2 = load(&first[1]);
        let mut x1 = load(&first[2]);
        let mut x0 = load(&first[3]);
        let k1k2 = _mm_set_epi64x(K2, K1);
        for [a, b, c, d] in blocks {
            x3 = fold(x3, load(a), k1k2);
            x2 = fold(x2, load(b), k1k2);
            x1 = fold(x1, load(c), k1k2);
            x0 = fold(x0, load(d), k1k2);
        }
        // Collapse the four lanes into one, then fold the remaining
        // whole 16-byte lanes one at a time.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        for lane in singles {
            x = fold(x, load(lane), k3k4);
        }
        // 128 → 96 → 64 bits.
        let mask32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, mask32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett reduction, 64 → 32 bits: T1 = (R mod x^32)·µ,
        // T2 = (T1 mod x^32)·P, and the reflected remainder is the upper
        // half of R ⊕ T2.
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, mask32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, mask32), pu);
        let crc = _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32;
        (crc, lanes.len() * 16)
    }

    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mul_fold_avx2(dst: &mut [u8], src: &[u8], lo: &[u8; 16], hi: &[u8; 16]) -> usize {
        let n = src.len() / 32 * 32;
        // SAFETY: unaligned 16-byte loads from 16-byte arrays.
        let (lo_t, hi_t) = unsafe {
            (
                _mm256_broadcastsi128_si256(_mm_loadu_si128(lo.as_ptr().cast())),
                _mm256_broadcastsi128_si256(_mm_loadu_si128(hi.as_ptr().cast())),
            )
        };
        let nib = _mm256_set1_epi8(0x0f);
        let mut off = 0usize;
        while off < n {
            // SAFETY: `off + 32 <= n <= src.len() <= dst.len()`; loads and
            // stores are unaligned.
            unsafe {
                let s = _mm256_loadu_si256(src.as_ptr().add(off).cast());
                let d_ptr = dst.as_mut_ptr().add(off).cast();
                let d = _mm256_loadu_si256(d_ptr as *const __m256i);
                let lo_part = _mm256_shuffle_epi8(lo_t, _mm256_and_si256(s, nib));
                let hi_part =
                    _mm256_shuffle_epi8(hi_t, _mm256_and_si256(_mm256_srli_epi16(s, 4), nib));
                let prod = _mm256_xor_si256(lo_part, hi_part);
                _mm256_storeu_si256(d_ptr, _mm256_xor_si256(d, prod));
            }
            off += 32;
        }
        n
    }

    /// # Safety
    ///
    /// The caller must have verified SSSE3 support at runtime.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mul_fold_ssse3(
        dst: &mut [u8],
        src: &[u8],
        lo: &[u8; 16],
        hi: &[u8; 16],
    ) -> usize {
        let n = src.len() / 16 * 16;
        // SAFETY: unaligned 16-byte loads from 16-byte arrays.
        let (lo_t, hi_t) = unsafe {
            (
                _mm_loadu_si128(lo.as_ptr().cast()),
                _mm_loadu_si128(hi.as_ptr().cast()),
            )
        };
        let nib = _mm_set1_epi8(0x0f);
        let mut off = 0usize;
        while off < n {
            // SAFETY: `off + 16 <= n <= src.len() <= dst.len()`; loads and
            // stores are unaligned.
            unsafe {
                let s = _mm_loadu_si128(src.as_ptr().add(off).cast());
                let d_ptr = dst.as_mut_ptr().add(off).cast();
                let d = _mm_loadu_si128(d_ptr as *const __m128i);
                let lo_part = _mm_shuffle_epi8(lo_t, _mm_and_si128(s, nib));
                let hi_part = _mm_shuffle_epi8(hi_t, _mm_and_si128(_mm_srli_epi16(s, 4), nib));
                let prod = _mm_xor_si128(lo_part, hi_part);
                _mm_storeu_si128(d_ptr, _mm_xor_si128(d, prod));
            }
            off += 16;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-at-a-time reflected CRC32 register update: the definition the
    /// fold kernel must reproduce.
    fn crc_bitwise(mut state: u32, data: &[u8]) -> u32 {
        for &b in data {
            state ^= b as u32;
            for _ in 0..8 {
                state = if state & 1 != 0 {
                    (state >> 1) ^ 0xedb8_8320
                } else {
                    state >> 1
                };
            }
        }
        state
    }

    fn pclmul_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1")
        }
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn crc32_fold_consumes_nothing_below_64_bytes() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 7) as u8).collect();
        for len in 0..64 {
            assert_eq!(
                crc32_fold(0x1234_5678, &data[..len]),
                (0x1234_5678, 0),
                "len={len}"
            );
        }
    }

    #[test]
    fn crc32_fold_consumes_whole_lanes_and_matches_bitwise() {
        let data: Vec<u8> = (0..1100u32).map(|i| (i * 131 % 251) as u8).collect();
        for start in [0usize, 1, 7, 15] {
            for len in (64..=1024).step_by(13).chain([64, 79, 80, 127, 128, 129]) {
                let s = &data[start..start + len];
                let (state, done) = crc32_fold(0xffff_ffff, s);
                assert!(
                    done <= len && done.is_multiple_of(16),
                    "done={done} len={len}"
                );
                if pclmul_available() {
                    assert_eq!(done, len / 16 * 16, "len={len}");
                }
                assert_eq!(
                    state,
                    crc_bitwise(0xffff_ffff, &s[..done]),
                    "start={start} len={len}"
                );
            }
        }
    }

    #[test]
    fn crc32_fold_continues_from_any_register() {
        let data: Vec<u8> = (0..256u32).map(|i| (i ^ 0xa5) as u8).collect();
        for state in [0u32, 1, 0xffff_ffff, 0xdead_beef, 0x8000_0000] {
            let (got, done) = crc32_fold(state, &data);
            assert_eq!(got, crc_bitwise(state, &data[..done]), "state={state:#x}");
        }
    }

    // A tiny independent GF(2^8) multiply (poly 0x11d) so the shim's
    // tests don't depend on the caller's tables.
    fn gf_mul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            let hi = a & 0x80;
            a <<= 1;
            if hi != 0 {
                a ^= 0x1d;
            }
            b >>= 1;
        }
        p
    }

    #[test]
    fn folds_match_scalar_for_every_coefficient_class() {
        for c in [0u8, 1, 2, 0x1d, 0x8e, 0xff] {
            let mut lo = [0u8; 16];
            let mut hi = [0u8; 16];
            for n in 0..16u8 {
                lo[n as usize] = gf_mul(c, n);
                hi[n as usize] = gf_mul(c, n << 4);
            }
            for len in [0usize, 15, 16, 17, 31, 32, 33, 257, 4096] {
                let src: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31)).collect();
                let mut dst: Vec<u8> = (0..len).map(|i| (i as u8) ^ 0x5a).collect();
                let want: Vec<u8> = dst
                    .iter()
                    .zip(&src)
                    .map(|(&d, &s)| d ^ gf_mul(c, s))
                    .collect();
                let done = gf8_mul_fold(&mut dst, &src, &lo, &hi);
                assert!(
                    done <= len && done.is_multiple_of(16),
                    "done={done} len={len}"
                );
                assert_eq!(&dst[..done], &want[..done], "c={c:#x} len={len}");
                assert_eq!(
                    &dst[done..],
                    &{
                        let tail: Vec<u8> = (done..len).map(|i| (i as u8) ^ 0x5a).collect();
                        tail
                    }[..],
                    "tail must be untouched"
                );
            }
        }
    }
}
