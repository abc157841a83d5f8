//! Metric arithmetic: tail percentiles that state their sample support,
//! ratios that carry their base, open-loop SLO accounting, and per-layer
//! self time over a span tree.

use std::collections::BTreeMap;

use crate::rec::Span;

/// Samples that must lie strictly beyond a percentile before it is
/// reported; below this the tail is noise.
pub const TAIL_SUPPORT: usize = 10;

/// A percentile of a sample set, with the support it was computed from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The percentile actually reported (may be lower than asked).
    pub p: f64,
    /// Its value, in the samples' unit.
    pub value: f64,
    /// Total samples.
    pub n: usize,
    /// Samples strictly above the reported percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank index of percentile `p` in `n` sorted samples, computed
/// in integer per-mille so that 99 % of 1100 is exactly rank 1089.
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n) - 1
}

/// Samples beyond the nearest-rank position of `p` in `n` samples.
fn beyond(p: f64, n: usize) -> usize {
    n - 1 - rank(p, n)
}

/// The `p`-th percentile of `samples` if at least [`TAIL_SUPPORT`]
/// samples lie beyond it; otherwise the highest of the standard
/// percentiles (99.9, 99, 95, 90, 75, 50) that has that support, or
/// `None` when not even the median has it. The median of any set with
/// 21+ samples always has support.
pub fn tail(samples: &[f64], p: f64) -> Option<Pct> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let ladder = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    std::iter::once(p)
        .chain(ladder.into_iter().filter(|&q| q < p))
        .find(|&q| beyond(q, n) >= TAIL_SUPPORT)
        .map(|q| Pct { p: q, value: v[rank(q, n)], n, beyond: beyond(q, n) })
}

/// The median, which needs no tail support.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    (!v.is_empty()).then(|| v[rank(50.0, v.len())])
}

/// A ratio that always travels with its numerator and base.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Base (denominator).
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// The quotient; 0 over an empty base.
    pub fn value(self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

/// Outcome of one open-loop request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Outcome {
    /// Completed at this virtual time (ns).
    Done(u64),
    /// Failed or was refused.
    Failed,
}

/// Latency of an open-loop request, counted from when it was *due*, not
/// from when the generator got round to sending it: a stalled generator
/// must show up as latency, not hide inside it.
pub fn open_loop_latency(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

/// Share of `sent` requests that succeeded within `limit_ns` of their due
/// time. A failure or refusal is a miss; so is a request that was due but
/// never reported an outcome, since `sent` is the base.
pub fn slo_ok(requests: &[(u64, Outcome)], limit_ns: u64, sent: usize) -> Ratio {
    let ok = requests
        .iter()
        .filter(|(due, out)| match out {
            Outcome::Done(t) => open_loop_latency(*due, *t) <= limit_ns,
            Outcome::Failed => false,
        })
        .count();
    Ratio::new(ok as f64, sent as f64)
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children clipped to the parent, overlaps
/// merged), in virtual ns.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut kids: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push((s.v0, s.v1));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = kids.get_mut(&(i as u32)).map_or(0, |iv| covered(iv, s.v0, s.v1));
            (s.v1 - s.v0).saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `iv`, clipped to `[lo, hi]`.
fn covered(iv: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for &(a, b) in iv.iter() {
        let (a, b) = (a.clamp(lo, hi), b.clamp(lo, hi));
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Per-unit attribution check: for every root span, the self times of the
/// spans in its tree summed, against the root's duration. Returns the
/// largest relative gap over all units (0 when the tree tiles exactly).
pub fn attribution_gap(spans: &[Span], selfs: &[u64]) -> f64 {
    let mut per_unit: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(selfs) {
        let e = per_unit.entry(s.unit).or_default();
        e.0 += own;
        if s.parent.is_none() {
            e.1 += s.v1 - s.v0;
        }
    }
    per_unit
        .values()
        .map(|&(sum, root)| sum.abs_diff(root) as f64 / (root.max(1)) as f64)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(unit: u64, parent: Option<u32>, v0: u64, v1: u64) -> Span {
        Span { unit, parent, name: "x", v0, v1, h0: 0, h1: 0 }
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1100).map(f64::from).collect();
        let p = tail(&v, 99.0).expect("enough samples");
        assert_eq!(p.p, 99.0);
        assert_eq!(p.value, 1089.0);
        assert_eq!(p.beyond, 11);
        assert_eq!(p.n, 1100);
    }

    #[test]
    fn short_tail_falls_back_to_the_highest_supported_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = tail(&v, 99.0).expect("p95 has support");
        assert_eq!((p.p, p.beyond), (95.0, 10), "p99 has only 2 samples beyond it");
        assert!(p.beyond >= TAIL_SUPPORT);
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&few, 99.0), None, "no percentile has 10 samples beyond it");
        assert_eq!(
            tail(&(1..=21).map(f64::from).collect::<Vec<_>>(), 99.0).map(|p| p.p),
            Some(50.0)
        );
    }

    #[test]
    fn exactly_ten_beyond_is_enough() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = tail(&v, 99.0).expect("1000 samples");
        assert_eq!((p.p, p.beyond), (99.0, 10));
    }

    #[test]
    fn failed_requests_count_as_slo_misses() {
        let reqs = [(0, Outcome::Done(100)), (50, Outcome::Failed), (0, Outcome::Done(300))];
        let r = slo_ok(&reqs, 200, 3);
        assert_eq!((r.num, r.den), (1.0, 3.0));
    }

    #[test]
    fn requests_without_an_outcome_are_misses_too() {
        let r = slo_ok(&[(0, Outcome::Done(10))], 200, 4);
        assert_eq!(r.value(), 0.25);
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // Due at 1 ms, sent late at 3 ms, done at 4 ms: 3 ms, not 1 ms.
        assert_eq!(open_loop_latency(1_000_000, 4_000_000), 3_000_000);
        let reqs = [(1_000_000, Outcome::Done(4_000_000))];
        assert_eq!(slo_ok(&reqs, 2_000_000, 1).value(), 0.0, "late send misses a 2 ms limit");
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(3.0, 12.0);
        assert_eq!((r.num, r.den, r.value()), (3.0, 12.0, 0.25));
        assert_eq!(Ratio::new(0.0, 0.0).value(), 0.0);
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = [
            span(1, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(1, Some(0), 30, 60), // overlaps the first child
            span(1, Some(1), 15, 20),
        ];
        let s = self_times(&spans);
        assert_eq!(s, vec![50, 25, 30, 5]);
        // 50 + 25 + 30 + 5 = 110 > 100: the overlap is caught.
        assert!(attribution_gap(&spans, &s) > 0.09);
    }

    #[test]
    fn tiling_children_attribute_exactly() {
        let spans = [
            span(7, None, 0, 100),
            span(7, Some(0), 0, 30),
            span(7, Some(0), 30, 100),
            span(8, None, 5, 9),
        ];
        let s = self_times(&spans);
        assert_eq!(s, vec![0, 30, 70, 4]);
        assert_eq!(attribution_gap(&spans, &s), 0.0);
    }
}
