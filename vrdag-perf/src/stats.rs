//! Order statistics, the least-squares slope, and the payload hash —
//! the small numeric kernels every metric in the report is built from.

/// Samples a percentile needs before it is reported: at least ten
/// samples must lie beyond it, so p50 needs 20, p95 needs 200 and p99
/// needs 1000. Below that the percentile is unresolved (`None`), never
/// estimated.
pub fn min_samples(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

/// Nearest-rank percentile `q` (in `0..=1`) of `v`, or `None` when `v`
/// holds fewer than [`min_samples`]`(q)` values.
pub fn tail_percentile(v: &[f64], q: f64) -> Option<f64> {
    if v.len() < min_samples(q) {
        return None;
    }
    Some(nearest_rank(&sorted(v), q))
}

/// Median of `v` (`None` when empty). Medians are reported at any
/// sample count; the count travels with the metric.
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    Some(nearest_rank(&sorted(v), 0.5))
}

pub fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// Mean of the middle half of `v` (the lowest and highest quarter
/// dropped): as robust to a few outliers as the median, but not stuck
/// on one sample when the values are counts.
pub fn interquartile_mean(v: &[f64]) -> Option<f64> {
    let s = sorted(v);
    let cut = s.len() / 4;
    mean(&s[cut..s.len() - cut])
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(v, n=4)` (the default "exclusive"
/// method), which is how run-to-run spread is judged. One value gives
/// three equal quartiles.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(v);
    match s.len() {
        0 => None,
        1 => Some((s[0], s[0], s[0])),
        n => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 / 4.0 - j as f64;
                s[j - 1] + (s[j] - s[j - 1]) * delta
            };
            Some((cut(1), cut(2), cut(3)))
        }
    }
}

/// Least-squares slope of `ys` against `xs` (`None` with fewer than two
/// distinct x values).
pub fn slope(xs: &[f64], ys: &[f64]) -> Option<f64> {
    let (mx, my) = (mean(xs)?, mean(ys)?);
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    if xs.len() != ys.len() || sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    Some(sxy / sxx)
}

/// Streaming 64-bit hash of a byte sequence. The value depends only on
/// the bytes, not on how they were split across `write` calls, so a
/// `SUB` stream hashed frame by frame equals the same bytes hashed as
/// one `GEN` payload. Word-at-a-time, so hashing every reply costs the
/// client far less than receiving it.
#[derive(Clone, Debug)]
pub struct Hasher {
    h: u64,
    tail: [u8; 8],
    tail_len: usize,
    len: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher { h: 0x243F_6A88_85A3_08D3, tail: [0; 8], tail_len: 0, len: 0 }
    }
}

impl Hasher {
    fn mix(&mut self, word: u64) {
        self.h = (self.h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }

    pub fn write(&mut self, mut bytes: &[u8]) {
        self.len += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 8 {
                return;
            }
            self.mix(u64::from_le_bytes(self.tail));
            self.tail_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    pub fn finish(&self) -> u64 {
        let mut last = [0u8; 8];
        last[..self.tail_len].copy_from_slice(&self.tail[..self.tail_len]);
        let mut h = self.h ^ u64::from_le_bytes(last) ^ self.len.rotate_left(32);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^ (h >> 33)
    }
}

pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Hasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        assert_eq!(min_samples(0.95), 200);
        assert_eq!(min_samples(0.99), 1000);
        let v: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), None, "n=199 cannot resolve p95");
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), Some(190.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[1.0, 100.0, 3.0, 2.0, 4.0, 0.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(interquartile_mean(&[5.0, 7.0]), Some(6.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some((1.0, 3.0, 4.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
    }

    #[test]
    fn least_squares_slope() {
        let xs = [5.0, 10.0, 15.0, 20.0];
        let ys: Vec<f64> = xs.iter().map(|x| 0.25 * x + 1.0).collect();
        assert!((slope(&xs, &ys).unwrap() - 0.25).abs() < 1e-12);
        // Noisy points: slope of (0,0),(1,2),(2,1) is 0.5.
        assert!((slope(&[0.0, 1.0, 2.0], &[0.0, 2.0, 1.0]).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(slope(&[3.0, 3.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn hash_ignores_chunking() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let whole = hash_bytes(&data);
        for split in [1, 3, 8, 13, 999] {
            let mut h = Hasher::default();
            for chunk in data.chunks(split) {
                h.write(chunk);
            }
            assert_eq!(h.finish(), whole, "split {split}");
        }
        assert_ne!(hash_bytes(&data[..999]), whole);
        assert_ne!(hash_bytes(b"ab"), hash_bytes(b"ab\0"), "length is part of the hash");
    }
}
