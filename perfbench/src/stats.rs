//! Small measurement helpers: tail percentiles, process CPU and memory
//! from `/proc/self`, and the result line.

use std::fmt::Write as _;

/// Percentiles a tail may be reported at, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Sub-buckets per power of two: values are kept to within 1/256.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
/// Larger values (over 18 minutes in nanoseconds) share the last bucket.
const MAX: u64 = (1 << 40) - 1;

/// A fixed-size log-linear histogram of nanosecond timings. Its memory
/// does not grow with the number of samples, so a faster service does
/// not show a larger `peak_rss_mib` for keeping more of them.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; Self::bucket(MAX) + 1],
            total: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        let v = v.min(MAX);
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros() - SUB_BITS;
        ((u64::from(e) + 1) * SUB + ((v >> e) - SUB)) as usize
    }

    /// Lowest value and width of bucket `b`.
    fn span(b: usize) -> (u64, u64) {
        let b = b as u64;
        if b < SUB {
            return (b, 1);
        }
        let e = b / SUB - 1;
        ((SUB + b % SUB) << e, 1 << e)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `rank`-th smallest sample (1-based), interpolated linearly
    /// among the samples that share its bucket.
    fn at_rank(&self, rank: u64) -> f64 {
        let mut below = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c >= rank {
                let (low, width) = Self::span(b);
                return low as f64 + width as f64 * (rank - below - 1) as f64 / c as f64;
            }
            below += c;
        }
        0.0
    }
}

/// A timing percentile with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub samples: u64,
    /// Samples strictly beyond the reported rank.
    pub beyond: u64,
}

/// Nearest rank (1-based) of percentile `pct` among `n` samples.
fn rank(pct: f64, n: u64) -> u64 {
    ((pct / 100.0 * n as f64).ceil() as u64).clamp(1, n.max(1))
}

/// The highest percentile, at most `max_pct`, that has at least ten
/// samples beyond it. `None` when even the median has fewer than ten
/// samples beyond it.
fn tail(h: &Hist, max_pct: f64) -> Option<Tail> {
    let n = h.len();
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= max_pct)
        .map(|pct| (pct, rank(pct, n)))
        .find(|&(_, r)| n.saturating_sub(r) >= 10)
        .map(|(pct, r)| Tail {
            pct,
            value: h.at_rank(r),
            samples: n,
            beyond: n - r,
        })
}

/// The quietest slices of a window: the indices, ascending, of the
/// slices in which the most steps completed (ties broken by position),
/// `ceil(n * share)` of them, or as many more as it takes for them to
/// hold `min_samples` round trips.
pub fn quietest(steps: &[u64], round_trips: &[u64], share: f64, min_samples: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steps.len()).collect();
    order.sort_by_key(|&k| (std::cmp::Reverse(steps[k]), k));
    let mut keep = (steps.len() as f64 * share).ceil() as usize;
    let mut samples: u64 = order[..keep.min(order.len())]
        .iter()
        .map(|&k| round_trips[k])
        .sum();
    while keep < order.len() && samples < min_samples {
        samples += round_trips[order[keep]];
        keep += 1;
    }
    order.truncate(keep);
    order.sort_unstable();
    order
}

/// The p99 of `h` if at least ten samples lie beyond it.
pub fn p99(h: &Hist) -> Option<Tail> {
    tail(h, 99.0).filter(|t| t.pct == 99.0)
}

/// Samples a group of slices needs beyond its p99 before its p99 is
/// compared with other groups': with fewer, the lowest group p99 mostly
/// picks out sampling noise.
pub const GROUP_BEYOND: u64 = 100;

/// Cut `slices` into the most equal groups of neighbouring entries in
/// which every group has at least [`GROUP_BEYOND`] samples beyond its
/// p99 (the last group takes any entries left over), and return each
/// group's p99. When no cut qualifies, the p99 of all of them, if at
/// least ten samples lie beyond it; otherwise `None`.
pub fn group_p99s(slices: &[Hist]) -> Option<Vec<Tail>> {
    let n = slices.len();
    let merged = |from: usize, to: usize| {
        let mut h = Hist::default();
        for s in &slices[from..to] {
            h.merge(s);
        }
        h
    };
    (1..=n)
        .find_map(|len| {
            let count = n / len;
            (0..count)
                .map(|i| {
                    let end = if i + 1 == count { n } else { (i + 1) * len };
                    p99(&merged(i * len, end)).filter(|t| t.beyond >= GROUP_BEYOND)
                })
                .collect()
        })
        .or_else(|| p99(&merged(0, n)).map(|t| vec![t]))
}

/// The median sample of `h` (0 when empty).
pub fn median(h: &Hist) -> f64 {
    h.at_rank(rank(50.0, h.len()))
}

/// The median of a small set of measurements.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Process user+system CPU time in microseconds, all threads included
/// (`/proc/self/stat` fields 14 and 15, in clock ticks of 10 ms).
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    let ticks = |i: usize| f[i - 3].parse::<u64>().expect("numeric stat field");
    (ticks(14) + ticks(15)) * 10_000
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// Whether `name` is a legal metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The final stdout line: one JSON object.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "bad metric name {}", m.name);
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: impl IntoIterator<Item = u64>) -> Hist {
        let mut h = Hist::default();
        for v in values {
            h.record(v);
        }
        h
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= b / SUB as f64
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // p99.9 leaves one sample beyond; p99 leaves exactly ten.
        let t = tail(&hist(1..=1000), 99.9).unwrap();
        assert_eq!((t.pct, t.samples, t.beyond), (99.0, 1000, 10));
        assert!(close(t.value, 990.0), "{t:?}");
        // 200 samples support p95 (ten beyond) but not p99 (two).
        let t = tail(&hist(1..=200), 99.0).unwrap();
        assert_eq!(
            (t.pct, t.value, t.samples, t.beyond),
            (95.0, 190.0, 200, 10)
        );
        // The cap is honoured even when the sample supports more.
        assert_eq!(tail(&hist(1..=100_000), 99.0).unwrap().pct, 99.0);
        // Too few samples for any tail.
        assert_eq!(tail(&hist([5; 15]), 99.0), None);
        assert_eq!(tail(&Hist::default(), 99.0), None);
    }

    #[test]
    fn histogram_keeps_values_to_within_a_bucket() {
        for v in [0, 1, 255, 256, 1000, 65_537, 123_456_789, MAX] {
            let (low, width) = Hist::span(Hist::bucket(v));
            assert!(low <= v && v - low < width, "{v}: [{low}, +{width})");
            assert!(width == 1 || width <= low / (SUB / 2), "{v}: width {width}");
        }
        let mut a = hist([10, 20]);
        a.merge(&hist([30]));
        assert_eq!(a.len(), 3);
        assert_eq!(median(&a), 20.0);
    }

    #[test]
    fn quietest_keeps_the_slices_with_most_steps() {
        let ones = [1; 8];
        assert_eq!(quietest(&[5, 9, 1, 9, 7, 2], &ones, 0.5, 0), vec![1, 3, 4]);
        let steps = [5, 9, 1, 9, 7, 2, 8, 3];
        assert_eq!(quietest(&steps, &ones, 0.25, 0), vec![1, 3]);
        assert_eq!(quietest(&[3, 1, 2], &ones, 0.5, 0), vec![0, 2]);
        assert_eq!(quietest(&[3, 1, 2], &ones, 0.25, 0), vec![0]);
        assert_eq!(quietest(&[4], &ones, 0.25, 0), vec![0]);
        assert!(quietest(&[], &[], 0.25, 10).is_empty());
        // Too few round trips in the quietest quarter: the next quietest
        // slices join until there are enough, or none are left.
        let trips = [10, 10, 10, 10, 10, 10, 10, 10];
        assert_eq!(quietest(&steps, &trips, 0.25, 35), vec![1, 3, 4, 6]);
        assert_eq!(quietest(&steps, &trips, 0.25, 1000).len(), 8);
        assert_eq!(p99(&hist(1..=1000)).map(|t| t.beyond), Some(10));
        assert_eq!(p99(&hist(1..=999)), None);
    }

    #[test]
    fn groups_are_the_most_that_hold_enough_beyond_p99() {
        // Ten slices of 6000 samples: pairs of slices reach 12000
        // samples (120 beyond p99), single slices do not.
        let slices: Vec<Hist> = (0..10u64)
            .map(|k| hist((1..=6000).map(|v| v + k)))
            .collect();
        let tails = group_p99s(&slices).unwrap();
        assert_eq!(tails.len(), 5);
        assert!(tails
            .iter()
            .all(|t| t.samples == 12000 && t.beyond >= GROUP_BEYOND));
        // A burst in one slice raises one group's p99, not the lowest.
        let lowest = |t: &[Tail]| t.iter().map(|t| t.value).fold(f64::INFINITY, f64::min);
        let mut burst = slices.clone();
        burst[3] = hist((1..=6000).map(|v| v * 100));
        assert_eq!(lowest(&group_p99s(&burst).unwrap()), lowest(&tails));
        // Three slices of 500 cannot be cut: the p99 of all 1500.
        let short: Vec<Hist> = (0..3).map(|_| hist(1..=500)).collect();
        let all = group_p99s(&short).unwrap();
        assert_eq!((all.len(), all[0].samples), (1, 1500));
        assert!(group_p99s(&[hist(1..=50)]).is_none());
    }

    #[test]
    fn median_helpers() {
        assert_eq!(median(&hist([1, 2, 3])), 2.0);
        assert_eq!(median(&hist([1, 2, 3, 4])), 2.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mib() > 0.0);
        let _ = process_cpu_us();
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            10,
            0,
            &[Metric {
                name: "rtt_p50_us".into(),
                unit: "us",
                value: 12.5,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"rtt_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("scheme.hp-dmmpc.access_ns_per_step"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name(""));
    }
}
