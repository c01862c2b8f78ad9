//! Percentiles, digests and process memory readings.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The `p`-th quantile (`0 < p <= 1`) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least `p · n` samples at or below
/// it. `None` for an empty slice.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A set of timing samples in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.push_ms(d.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.ms.push(ms);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: Samples) {
        self.ms.extend(other.ms);
        self.sorted = false;
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.ms.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.ms.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile in milliseconds.
    pub fn quantile(&mut self, p: f64) -> Option<f64> {
        self.sort();
        nearest_rank(&self.ms, p)
    }

    /// How many samples lie strictly above the `p` quantile.
    pub fn beyond(&mut self, p: f64) -> usize {
        let Some(q) = self.quantile(p) else { return 0 };
        self.ms.iter().filter(|v| **v > q).count()
    }

    #[must_use]
    pub fn sum(&self) -> f64 {
        self.ms.iter().sum()
    }

    /// The samples in the order taken, rounded to `0.001` ms, for metadata.
    #[must_use]
    pub fn list(&self) -> String {
        let each: Vec<String> = self.ms.iter().map(|v| format!("{v:.3}")).collect();
        each.join(" ")
    }
}

/// The probe's table: 65 536 sorted pseudo-random keys (256 KiB).
fn probe_table() -> &'static [u32] {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut keys: Vec<u32> = (0..65_536_u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        keys.sort_unstable();
        keys
    })
}

/// The host's current speed: the time, in nanoseconds, of binary
/// searches for pseudo-random keys in [`probe_table`], best of three so
/// an interrupt does not count. It calls nothing of the program. Its
/// mispredicted branches and cache misses slow down with the program's
/// when the host does; a loop of arithmetic alone hardly does. One try
/// takes about 30 µs.
#[must_use]
pub fn probe_ns() -> f64 {
    let table = probe_table();
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let (mut key, mut found) = (0x9e37_79b9_u32, 0_usize);
            for _ in 0..1_024 {
                key = key.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                found += table.partition_point(|v| *v < key);
            }
            std::hint::black_box(found);
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// FNV-1a over little-endian `u64` words: stable across platforms and
/// runs, so digests can be recorded and compared.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn eat(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn eat_f64(&mut self, v: f64) {
        self.eat(v.to_bits());
    }

    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Resets the kernel's peak-RSS mark to the current RSS, so a later
/// [`peak_rss_mb`] covers only what runs after this call. Returns whether
/// the reset took effect (Linux only).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size (`VmHWM`) in MiB, if the platform reports it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    status_kib("VmHWM:").map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.001), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.75), Some(3.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
    }

    #[test]
    fn samples_sort_lazily_and_count_the_tail() {
        let mut s = Samples::default();
        for v in (1..=1000).rev() {
            s.push_ms(f64::from(v));
        }
        assert_eq!(s.quantile(0.5), Some(500.0));
        assert_eq!(s.quantile(0.99), Some(990.0));
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(s.quantile(1.0), Some(1000.0));
        s.push_ms(0.5);
        assert_eq!(s.quantile(0.0005), Some(0.5));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.eat(1);
        a.eat(2);
        let mut b = Digest::default();
        b.eat(2);
        b.eat(1);
        assert_ne!(a.hex(), b.hex());
    }
}
