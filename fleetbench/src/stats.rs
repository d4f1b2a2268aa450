//! Order statistics over timing samples.

use std::time::Duration;

/// The nearest-rank `p`-quantile (`0 < p <= 1`) of `values`, sorting them
/// in place. `NaN` for an empty sample.
pub fn quantile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median, averaging the two middle values of an even sample.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nanosecond samples as floating-point values in `unit_ns`-sized units.
pub fn scaled(ns: &[u64], unit_ns: f64) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / unit_ns).collect()
}

/// Events per second: the median over the whole one-second windows of
/// the phase (`per_second` counts the events of each second). A slow
/// phase of the host shorter than half the run leaves it unmoved.
pub fn windowed_rate(per_second: &[u64], wall: Duration) -> f64 {
    let windows = wall.as_secs() as usize;
    if windows == 0 {
        let events: u64 = per_second.iter().sum();
        return events as f64 / wall.as_secs_f64().max(1e-9);
    }
    let mut counts: Vec<f64> = (0..windows)
        .map(|w| per_second.get(w).copied().unwrap_or(0) as f64)
        .collect();
    median(&mut counts)
}

/// The `p`-quantile of round trips, as the median over consecutive groups
/// of `group` samples in completion order (`(done, round trip)` pairs).
pub fn grouped_quantile(samples: &mut [(u32, u32)], group: usize, p: f64) -> f64 {
    samples.sort_unstable();
    let mut per_group: Vec<f64> = samples
        .chunks_exact(group)
        .map(|chunk| {
            let mut values: Vec<f64> = chunk.iter().map(|&(_, v)| v as f64).collect();
            quantile(&mut values, p)
        })
        .collect();
    if per_group.is_empty() {
        let mut values: Vec<f64> = samples.iter().map(|&(_, v)| v as f64).collect();
        return quantile(&mut values, p);
    }
    median(&mut per_group)
}
