//! Seeded input generation: the PRNG, the key distributions and the block
//! values. Kept here rather than borrowed from `swarm-bench`, so an edit
//! to that crate cannot shift a workload.

/// xorshift64* — deterministic, seedable, no dependencies.
pub struct Rng64(u64);

impl Rng64 {
    /// A generator seeded from `seed` (the state is never zero).
    pub fn new(seed: u64) -> Rng64 {
        Rng64(mix(seed).max(1))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// splitmix64 finalizer: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// YCSB's scrambled zipfian generator (theta 0.99): ranks are drawn
/// zipfian and then hashed over the keyspace, so hot keys are scattered.
pub struct Zipfian {
    items: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipfian {
    /// YCSB's default skew.
    pub const THETA: f64 = 0.99;

    /// A generator over keys `0..items`.
    pub fn new(items: u64) -> Zipfian {
        let items = items.max(2);
        let theta = Self::THETA;
        let zeta = |n: u64| (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(items);
        let zeta2 = zeta(2);
        Zipfian {
            items,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / items as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Next rank in `0..items` (0 is the hottest).
    pub fn next_rank(&self, rng: &mut Rng64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(Self::THETA) {
            return 1;
        }
        let rank = (self.items as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.items - 1)
    }

    /// Next key: the rank scrambled over `0..items`.
    pub fn next_key(&self, rng: &mut Rng64) -> u64 {
        mix(self.next_rank(rng)) % self.items
    }
}

/// Fills `out` with the value of `(seed, client, key, version)`. Every
/// byte depends on all four, so a read that returns another key's or
/// another version's block never compares equal.
pub fn fill_value(out: &mut [u8], seed: u64, client: u32, key: u64, version: u32) {
    let mut state = mix(seed ^ mix(u64::from(client) << 32 ^ u64::from(version)) ^ mix(key));
    for chunk in out.chunks_mut(8) {
        state = mix(state);
        chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
    }
}

/// The creation record stored with each block: `(key, version)`, so the
/// cleaner's move notification names the block it moved.
pub fn create_record(key: u64, version: u32) -> [u8; 12] {
    let mut out = [0u8; 12];
    out[..8].copy_from_slice(&key.to_le_bytes());
    out[8..].copy_from_slice(&version.to_le_bytes());
    out
}

/// Inverse of [`create_record`].
pub fn parse_create(create: &[u8]) -> Option<(u64, u32)> {
    let key = u64::from_le_bytes(create.get(..8)?.try_into().ok()?);
    let version = u32::from_le_bytes(create.get(8..12)?.try_into().ok()?);
    Some((key, version))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_differ_by_every_coordinate() {
        let mut base = vec![0u8; 4096];
        fill_value(&mut base, 1, 1, 7, 0);
        for (seed, client, key, version) in [(2, 1, 7, 0), (1, 2, 7, 0), (1, 1, 8, 0), (1, 1, 7, 1)]
        {
            let mut other = vec![0u8; 4096];
            fill_value(&mut other, seed, client, key, version);
            assert_ne!(base, other);
        }
        let mut again = vec![0u8; 4096];
        fill_value(&mut again, 1, 1, 7, 0);
        assert_eq!(base, again);
    }

    #[test]
    fn zipfian_is_skewed_and_in_bounds() {
        let zipf = Zipfian::new(1000);
        let mut rng = Rng64::new(3);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[zipf.next_key(&mut rng) as usize] += 1;
        }
        counts.sort_unstable();
        assert!(counts[999] > 20 * counts[500].max(1));
    }

    #[test]
    fn create_records_round_trip() {
        assert_eq!(parse_create(&create_record(42, 9)), Some((42, 9)));
        assert_eq!(parse_create(b"short"), None);
    }
}
