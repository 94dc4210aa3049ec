//! CRC32 (IEEE 802.3 polynomial), used to checksum fragment headers and
//! bodies, parity, entry tables, network frames and journal records.
//!
//! Implemented in-repo because Swarm defines its own on-disk format and
//! the workspace keeps its dependency set minimal. Every byte the system
//! moves is checksummed several times (sealed fragment, wire frame on
//! both ends, reconstruction), so the kernel runs at two speeds:
//!
//! - **Carry-less-multiply folding** (`shims/simd::crc32_fold`): on
//!   x86-64 CPUs with `pclmulqdq` and SSE4.1, inputs of 64 bytes or more
//!   are folded 64 bytes per step in four 128-bit lanes and reduced with
//!   a Barrett step — close to memory speed. CPU support is detected at
//!   run time; nothing selects the path.
//! - **Slice-by-8**: eight precomputed tables fold one 64-bit word per
//!   step. It finishes the folding kernel's tail (under 16 bytes), and
//!   handles short inputs and every input on other CPUs and targets.
//!
//! Both produce the same value bit for bit as the byte-at-a-time
//! definition ([`crc32_baseline`]), so the choice never shows in any
//! stored or transmitted checksum. The tables are built by `const fn`,
//! so there is no build script and no lazy initialization.

/// The IEEE CRC32 polynomial in reversed bit order.
const POLY: u32 = 0xedb8_8320;

/// The classic one-byte-at-a-time table (table 0 of the slice-by-8 set).
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Slice-by-8 table set: `TABLES[k][b]` is the CRC contribution of byte
/// `b` seen `k` positions before the end of an 8-byte word, i.e.
/// `TABLES[k][b] = crc_shift(TABLES[k-1][b])`.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = build_table();
    let mut i = 0;
    while i < 256 {
        let mut crc = tables[0][i];
        let mut k = 1;
        while k < 8 {
            crc = tables[0][(crc & 0xff) as usize] ^ (crc >> 8);
            tables[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Computes the CRC32 (IEEE) of `data`.
///
/// # Example
///
/// ```
/// // Standard test vector: CRC32("123456789") == 0xcbf43926.
/// assert_eq!(swarm_types::crc32(b"123456789"), 0xcbf43926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    update(0xffff_ffff, data) ^ 0xffff_ffff
}

/// Incremental CRC32: feed chunks through [`Crc32`] when data is not
/// contiguous (e.g. a fragment header plus its payload).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a new incremental checksum.
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finishes and returns the checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }
}

/// Advances the raw CRC register over `data`: the folding kernel takes
/// as much as it can, slice-by-8 finishes the rest.
fn update(state: u32, data: &[u8]) -> u32 {
    let (state, done) = simd::crc32_fold(state, data);
    update_slice_by_8(state, &data[done..])
}

fn update_slice_by_8(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // Fold the running state into the low word, then look all eight
        // bytes up in parallel-independent tables. One iteration advances
        // the CRC by 64 bits.
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ state;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        state = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = TABLES[0][((state ^ b as u32) & 0xff) as usize] ^ (state >> 8);
    }
    state
}

/// CRC32 through the portable slice-by-8 kernel alone, bypassing the
/// carry-less-multiply path.
///
/// Not used on any hot path: it keeps the fallback that other CPUs and
/// targets run covered by tests and benchmarks on hosts where [`crc32`]
/// dispatches to the folding kernel.
#[doc(hidden)]
pub fn crc32_slice_by_8(data: &[u8]) -> u32 {
    update_slice_by_8(0xffff_ffff, data) ^ 0xffff_ffff
}

/// Reference byte-at-a-time CRC32, kept for benchmarks and as a
/// cross-check oracle for both kernels.
///
/// Not used on any hot path; `swarm-bench` measures [`crc32`] and
/// [`crc32_slice_by_8`] against it and the kernel sanity tests assert
/// they agree.
#[doc(hidden)]
pub fn crc32_baseline(data: &[u8]) -> u32 {
    let mut state = 0xffff_ffffu32;
    for &b in data {
        state = TABLES[0][((state ^ b as u32) & 0xff) as usize] ^ (state >> 8);
    }
    state ^ 0xffff_ffff
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"swarm striped log fragments";
        let mut inc = Crc32::new();
        inc.update(&data[..7]);
        inc.update(&data[7..]);
        assert_eq!(inc.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let orig = crc32(&data);
        data[512] ^= 0x10;
        assert_ne!(crc32(&data), orig);
    }

    #[test]
    fn empty_incremental_is_zero() {
        assert_eq!(Crc32::new().finish(), 0);
    }

    /// Deterministic, non-repeating test bytes.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    /// The portable kernel alone agrees with the byte-at-a-time oracle at
    /// every alignment and length around the 8-byte boundaries.
    #[test]
    fn slice_by_8_matches_baseline_at_all_alignments() {
        let data: Vec<u8> = (0..257u32).map(|i| (i * 31 % 251) as u8).collect();
        for start in 0..9 {
            for end in start..data.len() {
                let s = &data[start..end];
                assert_eq!(
                    crc32_slice_by_8(s),
                    crc32_baseline(s),
                    "range {start}..{end}"
                );
            }
        }
    }

    /// The dispatched kernel agrees with the oracle at every start offset
    /// in a cache line and every length up to 300 bytes, which spans the
    /// 64-byte floor of the folding kernel, its 16-byte lane steps and
    /// the slice-by-8 tail.
    #[test]
    fn crc32_matches_baseline_at_every_offset_and_length() {
        let data = pattern(64 + 300);
        for start in 0..64 {
            for len in 0..=300 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_baseline(s), "start {start} len {len}");
            }
        }
    }

    /// Lengths on both sides of the fold boundaries, at sizes where the
    /// four-lane loop runs several times.
    #[test]
    fn crc32_matches_baseline_around_fold_boundaries() {
        let data = pattern(4096 + 64);
        for base in [64usize, 128, 1024, 4096] {
            for len in base - 17..=base + 17 {
                for start in [0usize, 3, 8] {
                    let s = &data[start..start + len];
                    assert_eq!(crc32(s), crc32_baseline(s), "start {start} len {len}");
                }
            }
        }
    }

    /// A full fragment-sized body with an odd tail.
    #[test]
    fn crc32_matches_baseline_on_a_mebibyte_plus_seven() {
        let data = pattern((1 << 20) + 7);
        let want = crc32_baseline(&data);
        assert_eq!(crc32(&data), want);
        assert_eq!(crc32_slice_by_8(&data), want);
        assert_eq!(crc32(&data[1..]), crc32_baseline(&data[1..]));
    }

    proptest::proptest! {
        /// Splitting the input anywhere and feeding the pieces through
        /// [`Crc32::update`] gives the one-shot value: the folding kernel
        /// hands its register to slice-by-8 and back without loss.
        #[test]
        fn prop_incremental_matches_oneshot_at_any_split(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
            cuts in proptest::collection::vec(0usize..4096, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut inc = Crc32::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                inc.update(&data[at..cut]);
                at = cut;
            }
            proptest::prop_assert_eq!(inc.finish(), crc32_baseline(&data));
        }
    }
}
