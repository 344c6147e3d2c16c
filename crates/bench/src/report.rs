//! Speedup computation and table printing — the paper's *Measures*
//! (Section 5.1): raw speedup (epoch-time ratio) and effective speedup
//! (time to 90% of the best single-node quality).

use nups_ml::task::QualityDirection;

use crate::runner::RunResult;

/// Raw speedup of `variant` over `baseline` w.r.t. epoch run time.
pub fn raw_speedup(baseline: &RunResult, variant: &RunResult) -> f64 {
    let b = baseline.epoch_time().as_nanos() as f64;
    let v = variant.epoch_time().as_nanos() as f64;
    if v == 0.0 {
        return f64::NAN;
    }
    b / v
}

/// The effective-speedup threshold: 90% of the best quality the
/// single-node baseline reached.
pub fn effective_threshold(single: &RunResult, dir: QualityDirection) -> Option<f64> {
    single.best_quality(dir).map(|b| dir.effective_threshold(b))
}

/// Effective speedup of `variant` over `single`: ratio of times to reach
/// the 90% threshold. `None` when either run never reached it (the paper
/// then reports raw speedups, footnote 7).
pub fn effective_speedup(
    single: &RunResult,
    variant: &RunResult,
    dir: QualityDirection,
) -> Option<f64> {
    let threshold = effective_threshold(single, dir)?;
    let t_single = single.time_to_quality(threshold, dir)?;
    let t_variant = variant.time_to_quality(threshold, dir)?;
    if t_variant.as_nanos() == 0 {
        return None;
    }
    Some(t_single.as_nanos() as f64 / t_variant.as_nanos() as f64)
}

pub fn fmt_speedup(s: Option<f64>) -> String {
    match s {
        Some(x) if x.is_finite() => format!("{x:.2}x"),
        _ => "—".to_string(),
    }
}

pub fn fmt_quality(q: Option<f64>) -> String {
    match q {
        Some(x) => format!("{x:.4}"),
        None => "—".to_string(),
    }
}

/// Print a fixed-width table; first column left-aligned, the rest right.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 {
                line.push_str(&format!("{:<w$}  ", cell, w = widths[0]));
            } else {
                line.push_str(&format!("{:>w$}  ", cell, w = widths[i]));
            }
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Print a quality-over-time series (one line per evaluated epoch), the
/// textual equivalent of the paper's convergence plots.
pub fn print_series(result: &RunResult) {
    println!("\n--- {} ---", result.variant);
    println!("{:>6} {:>14} {:>12} {:>14}", "epoch", "virtual time", "quality", "train loss");
    for r in &result.records {
        println!(
            "{:>6} {:>14} {:>12} {:>14.1}",
            r.epoch + 1,
            r.time.to_string(),
            fmt_quality(r.quality),
            r.train_loss
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::EpochRecord;
    use nups_sim::metrics::MetricsSnapshot;
    use nups_sim::time::SimTime;

    fn result(name: &str, epoch_ns: u64, qualities: &[f64]) -> RunResult {
        RunResult {
            variant: name.to_string(),
            records: qualities
                .iter()
                .enumerate()
                .map(|(i, &q)| EpochRecord {
                    epoch: i,
                    time: SimTime(epoch_ns * (i as u64 + 1)),
                    quality: Some(q),
                    train_loss: 0.0,
                })
                .collect(),
            metrics: MetricsSnapshot::default(),
            sync_frequency: None,
            replicated_keys: 0,
        }
    }

    #[test]
    fn raw_speedup_is_epoch_time_ratio() {
        let slow = result("slow", 1000, &[0.1, 0.2]);
        let fast = result("fast", 250, &[0.1, 0.2]);
        assert!((raw_speedup(&slow, &fast) - 4.0).abs() < 1e-9);
        assert!((raw_speedup(&slow, &slow) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn effective_speedup_uses_90pct_threshold() {
        let dir = QualityDirection::HigherIsBetter;
        // Single node: best 0.2 → threshold 0.18, reached at epoch 4
        // (t = 4000).
        let single = result("single", 1000, &[0.05, 0.10, 0.15, 0.19, 0.20]);
        // Variant reaches 0.18 at its second epoch (t = 500×2 = 1000).
        let variant = result("v", 500, &[0.10, 0.19, 0.20]);
        let s = effective_speedup(&single, &variant, dir).unwrap();
        assert!((s - 4.0).abs() < 1e-9, "effective speedup {s}");
    }

    #[test]
    fn effective_speedup_none_when_threshold_unreached() {
        let dir = QualityDirection::HigherIsBetter;
        let single = result("single", 1000, &[0.1, 0.2]);
        let never = result("never", 100, &[0.01, 0.02]);
        assert!(effective_speedup(&single, &never, dir).is_none());
    }

    #[test]
    fn lower_is_better_thresholds() {
        let dir = QualityDirection::LowerIsBetter;
        let single = result("single", 1000, &[2.0, 1.0, 0.9]);
        let t = effective_threshold(&single, dir).unwrap();
        assert!(t > 0.9 && t < 1.01);
        let v = result("v", 100, &[1.5, 0.95]);
        let s = effective_speedup(&single, &v, dir).unwrap();
        // Threshold = 0.9/0.9 = 1.0: single reaches ≤1.0 at epoch 2
        // (t=2000); the variant at its epoch 2 (t=200).
        assert!((s - 10.0).abs() < 1e-9, "{s}");
    }
}
