//! Seeded input generation. The benchmark draws every workload input
//! from `--seed` here, outside the program, and hands the program only
//! the generated values.

/// SplitMix64: tiny, fast, and stable across platforms and versions.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed` (one stream per client
    /// keeps each client's inputs independent of the others').
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponentially distributed with the given mean (Poisson gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf-distributed ranks `0..n` with exponent `s`, by inverse CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// A 1 KB-class value tagged with the key it belongs to and the write that
/// produced it: `[key u32][writer u32][seq u64]` then filler derived from
/// the tag, so any corruption or cross-key mix-up is detectable.
pub fn tagged_value(len: usize, key: u32, writer: u32, seq: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&writer.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    let mut r = Rng::new(u64::from(key) << 32 | u64::from(writer), seq);
    while v.len() < len {
        v.extend_from_slice(&r.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

/// The `(key, writer, seq)` tag of a value, if it is well formed: the
/// right length and filler matching its tag.
pub fn read_tag(v: &[u8], len: usize) -> Option<(u32, u32, u64)> {
    if v.len() != len || len < 16 {
        return None;
    }
    let key = u32::from_le_bytes(v[0..4].try_into().ok()?);
    let writer = u32::from_le_bytes(v[4..8].try_into().ok()?);
    let seq = u64::from_le_bytes(v[8..16].try_into().ok()?);
    (tagged_value(len, key, writer, seq) == v).then_some((key, writer, seq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(9, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(9, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..5)
            .map({
                let mut r = Rng::new(9, 2);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut r = Rng::new(1, 0);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut r)).collect();
        let top10 = draws.iter().filter(|&&k| k < 10).count();
        assert!(top10 > 2_500, "top 1% of keys draws {top10} of 10000");
        assert!(draws.iter().all(|&k| k < 1000));
    }

    #[test]
    fn tags_round_trip_and_detect_corruption() {
        let v = tagged_value(1024, 7, 3, 42);
        assert_eq!(read_tag(&v, 1024), Some((7, 3, 42)));
        let mut bad = v.clone();
        bad[900] ^= 1;
        assert_eq!(read_tag(&bad, 1024), None);
        assert_eq!(read_tag(&v[..1000], 1024), None);
    }
}
