//! Latency samples cut into one-second windows, and the statistics the
//! benchmark reports from them.
//!
//! On a shared host the whole machine runs in slow phases — every
//! workload 1.5–2x slower at once for seconds to minutes, with the
//! executor's work counters unchanged — that no program change causes.
//! Interference only ever makes a window slower, so a run reports its
//! quiet windows: the windows are ranked by their p50, and `p50_us`,
//! `p99_us` and `ops_per_s` are means over the best [`KEPT_SHARE`] of
//! them. A slow phase raises a window's whole distribution and drops it
//! from the kept ones; a stall the program causes raises only the tail,
//! leaves the window's p50 and so its rank alone, and shows in `p99_us`
//! as often as it occurs. Setups are summarized by the same rule
//! ([`best_mean`]).

use std::time::{Duration, Instant};

const WINDOW: Duration = Duration::from_secs(1);

/// Share of the windows or setups, best first, that a reported value
/// averages.
const KEPT_SHARE: f64 = 0.2;

/// One closed window.
struct Window {
    p50_us: f64,
    p99_us: f64,
    ops_per_s: f64,
    requests: u64,
}

/// Requests are summarized window by window, so memory does not grow
/// with the number of requests a run completes.
pub struct Windows {
    current: Vec<u64>,
    start: Instant,
    /// Recorded time the open window carries over from earlier segments.
    carried: Duration,
    pub requests: u64,
    closed: Vec<Window>,
}

/// Means over the kept windows, and the number of requests they hold
/// (the samples behind `p99_us`).
pub struct Summary {
    pub p50_us: f64,
    pub p99_us: f64,
    pub ops_per_s: f64,
    pub kept_requests: u64,
}

impl Windows {
    pub fn new() -> Windows {
        Windows {
            current: Vec::with_capacity(1 << 17),
            start: Instant::now(),
            carried: Duration::ZERO,
            requests: 0,
            closed: Vec::new(),
        }
    }

    /// Start a new window now (after a pause in recording).
    pub fn restart(&mut self) {
        self.start = Instant::now();
    }

    /// Record one request that ended at `end`; `last` ends the segment.
    /// A window left under half full at the end of a segment stays open
    /// and continues in the next segment, so every window holds enough
    /// samples for a tail.
    pub fn record(&mut self, ns: u64, end: Instant, last: bool) {
        self.current.push(ns);
        self.requests += 1;
        let elapsed = self.carried + (end - self.start);
        if elapsed >= WINDOW || (last && elapsed >= WINDOW / 2) {
            self.current.sort_unstable();
            self.closed.push(window(&self.current, elapsed));
            self.current.clear();
            self.carried = Duration::ZERO;
            // The next window starts after the summary work above.
            self.start = Instant::now();
        } else if last {
            self.carried = elapsed;
        }
    }

    pub fn summary(&self) -> Summary {
        let mut open = self.current.clone();
        open.sort_unstable();
        let open = (!open.is_empty()).then(|| window(&open, self.carried));
        let mut ranked: Vec<&Window> = self.closed.iter().chain(&open).collect();
        ranked.sort_by(|a, b| a.p50_us.total_cmp(&b.p50_us));
        ranked.truncate(kept(ranked.len()));
        let mean = |f: fn(&Window) -> f64| {
            ranked.iter().map(|w| f(w)).sum::<f64>() / ranked.len().max(1) as f64
        };
        Summary {
            p50_us: mean(|w| w.p50_us),
            p99_us: mean(|w| w.p99_us),
            ops_per_s: mean(|w| w.ops_per_s),
            kept_requests: ranked.iter().map(|w| w.requests).sum(),
        }
    }
}

fn window(sorted: &[u64], elapsed: Duration) -> Window {
    Window {
        p50_us: quantile(sorted, 0.50) / 1e3,
        p99_us: quantile(sorted, 0.99) / 1e3,
        ops_per_s: sorted.len() as f64 / elapsed.as_secs_f64(),
        requests: sorted.len() as u64,
    }
}

/// How many of `n` values, best first, a reported value averages.
fn kept(n: usize) -> usize {
    ((n as f64 * KEPT_SHARE).round() as usize).clamp(1, n.max(1))
}

/// Mean of the lowest [`KEPT_SHARE`] of `values` (at least one).
pub fn best_mean(values: &[f64]) -> f64 {
    let mut values = values.to_vec();
    values.sort_by(f64::total_cmp);
    let k = kept(values.len());
    values.iter().take(k).sum::<f64>() / k as f64
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
