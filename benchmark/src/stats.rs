//! Order statistics over the benchmark's own samples.

/// Nearest-rank percentile of `sorted` (ascending) at `q` in `[0, 1]`:
/// the smallest sample with at least `q` of the samples at or below it.
/// `None` on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sorts `values` ascending (NaN-free input assumed; NaNs sort last).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
}

/// Median (mean of the two middle samples for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Share of a phase's slices, counted from the better end, that the
/// headline figure is read at.
pub const BETTER_SHARE: f64 = 0.05;

/// The value [`BETTER_SHARE`] of the way in from the better end of
/// `values`: the fastest twentieth of times, the highest twentieth of
/// rates.
/// Headline timings are read this way off the slices of a phase. A
/// shared machine slows down in spells that last from a fraction of a
/// second to minutes (a neighbour on the sibling hardware thread, a
/// virtual CPU not scheduled) and those only ever add time. The better
/// end reads the same whether such spells covered a tenth of the run or
/// nine tenths of it, where a median or a mean follows them; and of 240
/// slices it is the twelfth best, so one lucky slice does not set it.
/// 0 when empty.
pub fn better_end(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    if higher_is_better {
        v.reverse();
    }
    let index = (v.len().saturating_sub(1) as f64 * BETTER_SHARE) as usize;
    v.get(index).copied().unwrap_or(0.0)
}

/// Distance between the first and third quartile of `values` as a share
/// of their median, quartiles taken as Python's `statistics.quantiles(v,
/// n=4)` takes them — the spread the driver computes over runs, here over
/// the slices of one run. 0 with fewer than two values.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let n = values.len();
    let mid = median(values);
    if n < 2 || mid == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let quartile = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale, clamped into the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quartile(3) - quartile(1)) / mid.abs()
}

/// One completed operation of a timed phase: when it finished (seconds
/// from the start of the phase) and how long the caller waited for it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Completion {
    pub at_s: f64,
    pub latency_us: f64,
}

/// Rate and latency percentiles of a timed phase. The phase is cut into
/// slices of equal completion count; each headline figure is the
/// [`better_end`] of its per-slice values, so that a slow spell of
/// the machine spoils the slices it falls in and not the figure.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseStats {
    /// Units of work per second, read off the slices.
    pub rate: f64,
    /// The same over the whole phase after warm-up: work over time.
    pub mean_rate: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    /// Tail percentiles over every sample at once: not robust, not gated.
    pub p99_us: f64,
    pub p999_us: f64,
    /// Latency samples behind the figures (warm-up excluded).
    pub samples: u64,
    pub rate_slices: Vec<f64>,
    pub p50_slices: Vec<f64>,
    pub p90_slices: Vec<f64>,
}

/// Share of a phase's completions treated as warm-up and left out.
pub const WARMUP_SHARE: f64 = 0.05;

/// Most slices a phase is cut into (a 15 s phase then has slices of
/// about 60 ms, shorter than the machine's slow spells), and the least
/// work a slice may hold: completions come in bursts of a batch, and a
/// rate over less than a few batches is the burst's, not the system's.
const MAX_SLICES: usize = 240;
const MIN_SLICE_WORK: f64 = 64.0;

/// Reduces a phase's completions, given in completion order. `per_op` is
/// how many units of work one completion stands for (8 for a batch of
/// eight images).
pub fn phase_stats(completions: &[Completion], per_op: f64) -> PhaseStats {
    let warm = (WARMUP_SHARE * completions.len() as f64).ceil() as usize;
    // The completion before the first kept one marks where its slice
    // starts; with no warm-up to drop, the phase start does.
    let mut slice_start = if warm == 0 {
        0.0
    } else {
        completions[warm - 1].at_s
    };
    let kept = &completions[warm.min(completions.len())..];
    let mut stats = PhaseStats {
        samples: kept.len() as u64,
        ..PhaseStats::default()
    };
    if kept.is_empty() {
        return stats;
    }
    let mut all: Vec<f64> = kept.iter().map(|c| c.latency_us).collect();
    sort(&mut all);
    stats.p99_us = percentile(&all, 0.99).unwrap_or(0.0);
    stats.p999_us = percentile(&all, 0.999).unwrap_or(0.0);

    let phase_start = slice_start;
    let min_slice = (MIN_SLICE_WORK / per_op).ceil().max(1.0) as usize;
    let slices = (kept.len() / min_slice).clamp(1, MAX_SLICES);
    let per_slice = kept.len() / slices;
    for k in 0..slices {
        let end = if k + 1 == slices {
            kept.len()
        } else {
            (k + 1) * per_slice
        };
        let slice = &kept[k * per_slice..end];
        let slice_end = slice[slice.len() - 1].at_s;
        let span = (slice_end - slice_start).max(f64::MIN_POSITIVE);
        stats.rate_slices.push(slice.len() as f64 * per_op / span);
        slice_start = slice_end;
        let mut latencies: Vec<f64> = slice.iter().map(|c| c.latency_us).collect();
        sort(&mut latencies);
        stats
            .p50_slices
            .push(percentile(&latencies, 0.50).unwrap_or(0.0));
        stats
            .p90_slices
            .push(percentile(&latencies, 0.90).unwrap_or(0.0));
    }
    let span = (slice_start - phase_start).max(f64::MIN_POSITIVE);
    stats.mean_rate = kept.len() as f64 * per_op / span;
    stats.rate = better_end(&stats.rate_slices, true);
    stats.p50_us = better_end(&stats.p50_slices, false);
    stats.p90_us = better_end(&stats.p90_slices, false);
    stats
}
