//! `bench compare A.json B.json`: A is the parent, B the change. One
//! row per (workload, end-to-end metric) with both medians, judged by
//! the metric's own bound.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Ok,
    Better,
    /// The run-to-run spread exceeds the bound and the runs overlap: the
    /// pair says nothing either way.
    Unresolved,
    Regression,
}

/// Judges one (workload, metric) pair from every run's value.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    // Positive = B is worse, as a share of the parent's median.
    let worse = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse > bound {
        return Verdict::Regression;
    }
    if spread(a).max(spread(b)) > bound {
        let all_better = a.iter().all(|x| {
            b.iter().all(|y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn runs(w: &Json) -> &[Json] {
    w.get("runs").map_or(&[][..], Json::as_arr)
}

fn metric_values(w: &Json, metric: &str) -> Vec<f64> {
    runs(w)
        .iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn fail_share(w: &Json) -> f64 {
    let sum = |key: &str| {
        runs(w)
            .iter()
            .filter_map(|r| r.get(key)?.as_f64())
            .sum::<f64>()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Prints the table; returns whether B holds every bound.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let mut pass = true;
    println!(
        "{:<14} {:<13} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "A spread", "B spread", "bound"
    );
    for (name, _) in spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(a, name), workload(b, name)) else {
            return Err(format!("workload {name} is missing from one side"));
        };
        for (m, bound) in spec::END_TO_END {
            let (sa, sb) = (metric_values(wa, m.name), metric_values(wb, m.name));
            if sa.is_empty() || sb.is_empty() {
                return Err(format!("{name}/{} has no runs on one side", m.name));
            }
            let verdict = judge(&sa, &sb, m.better, bound);
            pass &= verdict != Verdict::Regression;
            let (ma, mb) = (median(&sa), median(&sb));
            println!(
                "{:<14} {:<13} {:>14.6} {:>14.6} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                name,
                m.name,
                ma,
                mb,
                (mb - ma) / ma.abs() * 100.0,
                spread(&sa) * 100.0,
                spread(&sb) * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Better => "better",
                    Verdict::Unresolved => "unresolved (spread > bound)",
                    Verdict::Regression => "REGRESSION",
                }
            );
        }
        let (fa, fb) = (fail_share(wa), fail_share(wb));
        let worse = fb > fa;
        pass &= !worse;
        println!(
            "{:<14} {:<13} {:>14.6} {:>14.6} {:>8} {:>8} {:>8} {:>6}  {}",
            name,
            "fail_share",
            fa,
            fb,
            "",
            "",
            "",
            "any",
            if worse {
                "REGRESSION (more ops fail)"
            } else {
                "ok"
            }
        );
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_applies_in_the_metric_direction() {
        let a = [100.0, 101.0, 99.0, 100.0];
        // ops/s: 9 % lower is past an 8 % bound, 5 % lower is not.
        assert_eq!(
            judge(&a, &[91.0, 91.0, 91.0, 91.0], Better::Higher, 0.08),
            Verdict::Regression
        );
        assert_eq!(
            judge(&a, &[95.0, 95.0, 95.0, 95.0], Better::Higher, 0.08),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0, 120.0], Better::Higher, 0.08),
            Verdict::Better
        );
        // seconds: higher is worse.
        assert_eq!(
            judge(&a, &[130.0, 130.0, 130.0, 130.0], Better::Lower, 0.25),
            Verdict::Regression
        );
        assert_eq!(
            judge(&a, &[120.0, 120.0, 120.0, 120.0], Better::Lower, 0.25),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(
                &noisy,
                &[85.0, 105.0, 115.0, 95.0, 100.0],
                Better::Higher,
                0.08
            ),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(
                &noisy,
                &[130.0, 140.0, 150.0, 135.0, 145.0],
                Better::Higher,
                0.08
            ),
            Verdict::Better
        );
        // One run on each side has no spread to speak of.
        assert_eq!(judge(&[100.0], &[101.0], Better::Higher, 0.08), Verdict::Ok);
    }
}
