//! Order statistics, the CPU-time reader, a seeded generator, and the
//! report digest.

/// The ceil-rank percentile (`k = clamp(⌈p·n⌉, 1, n)`) of sorted
/// samples, the rule the simulator's own summaries use.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let k = ((p * n as f64).ceil() as usize).clamp(1, n);
    sorted[k - 1]
}

/// Sorts a copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (ceil-rank p50) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile_sorted(&sorted(samples), 0.5)
}

/// Samples that must lie beyond the tail percentile.
const BEYOND_TAIL: usize = 10;

/// The highest percentile with at least ten samples beyond it, with its
/// value: `(p, value)`, where the value is the eleventh-largest sample
/// and `p = (n - 10) / n` (p99 at 1,000 samples, p99.9 at 10,000).
/// `None` under forty samples, where that percentile would sit below
/// p75 and be no tail — report the median alone then.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 4 * BEYOND_TAIL {
        return None;
    }
    let k = n - BEYOND_TAIL;
    Some((k as f64 / n as f64, sorted(samples)[k - 1]))
}

/// Linux clock ticks per second for `/proc` CPU times (`USER_HZ`,
/// fixed at 100 by the kernel ABI on every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads, live
/// and exited) from the text of `/proc/self/stat`.
///
/// The command name (field 2) is parenthesized and may itself hold
/// spaces or parentheses, so fields are counted from the *last* `)`:
/// `utime` and `stime` are fields 14 and 15 overall.
pub fn parse_proc_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (state), so field `f` sits at `f - 3`.
    let utime: u64 = fields.get(14 - 3)?.parse().ok()?;
    let stime: u64 = fields.get(15 - 3)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Process CPU seconds so far.
///
/// # Panics
///
/// When `/proc/self/stat` is missing or malformed (the benchmark runs
/// on Linux only).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_proc_stat_cpu_s(&stat).expect("parse /proc/self/stat")
}

/// SplitMix64: the benchmark's own seeded generator, so inputs are a
/// pure function of `--seed` and the label they are drawn for.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `label`.
    pub fn new(seed: u64, label: &str) -> Self {
        Rng(seed ^ fnv1a(label.as_bytes()))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// 64-bit FNV-1a, the digest printed for determinism checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_forty_samples() {
        let s: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(tail(&s), None, "under forty samples: median only");
        let s: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&s), Some((0.75, 30.0)), "exactly ten beyond p75");
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_beyond() {
        // n = 1000: p99 leaves exactly 10 beyond, p99.9 only 1.
        let s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&s), Some((0.99, 990.0)));
        // n = 10_000: p99.9 leaves exactly 10 beyond.
        let s: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&s), Some((0.999, 9990.0)));
        // n = 999: p99 would leave 9, so the tail sits just below it.
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        let (p, v) = tail(&s).unwrap();
        assert_eq!(v, 989.0);
        assert!(p < 0.99 && p > 0.98);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn median_uses_ceil_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn cpu_reader_counts_from_the_last_paren() {
        // A command name with spaces and a `)` inside it.
        let line = "4242 (my (odd) prog) R 1 4242 4242 0 -1 4194560 \
                    500 0 0 0 250 75 0 0 20 0 3 0 12345 0 0";
        assert_eq!(parse_proc_stat_cpu_s(line), Some(3.25));
        assert_eq!(parse_proc_stat_cpu_s("4242 (truncated) R 1"), None);
        assert_eq!(parse_proc_stat_cpu_s("no parens at all"), None);
    }

    #[test]
    fn cpu_reader_reads_this_process() {
        let before = process_cpu_s();
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let after = process_cpu_s();
        assert!(after >= before);
        assert!(
            after - before >= 0.02,
            "60 ms of spinning shows as CPU time"
        );
    }

    #[test]
    fn rng_is_a_function_of_seed_and_label() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7, "x");
        let mut s = Rng::new(8, "x");
        assert_ne!(r.next_u64(), s.next_u64());
        assert_ne!(Rng::new(7, "y").next_u64(), Rng::new(7, "x").next_u64());
    }
}
