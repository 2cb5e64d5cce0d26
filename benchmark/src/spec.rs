//! The benchmark's declared shape: workloads, metrics, units, directions
//! and regression bounds. `BENCHMARK.json` at the repo root is this
//! module printed by `bench spec`; a unit test holds the two together.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 10;

/// Each workload with the reason it was chosen.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "barrier_p64",
        "jittered measure of 4 barriers at p=64: state fits in L1/L2, so jitter fill and the stage loop do all the work (compute-bound)",
    ),
    (
        "barrier_p4096",
        "the same layers memory-bound: a 15.7 MB jitter table per lane batch against a 4 MiB L2; placement and plan compile show in setup_s",
    ),
    (
        "faulty_p256",
        "faulty, neutral-fault and recovering reps: the clean path's NetState, scratch and jitter through the scalar retry/timeout/repair branches",
    ),
    (
        "model_search",
        "modelling side only (build, compile, verify, analyze, predict, greedy search); no simulation is timed, so executor changes predict no move",
    ),
    (
        "bsp_apps_p64",
        "collectives, stencil and inner product through run_spmd: exchange resolution, scalar sync and real payload copies the barriers never touch",
    ),
    (
        "repro_sim",
        "the shipped repro CLI as a child process (8 experiments, smoke effort): process start, sweeps over every layer, CSV output; dilutes a one-layer gain",
    ),
];

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen. The host-time bounds are as wide as the contract
/// allows because the sandbox drifts: two sets of ten runs of one
/// commit, half an hour apart, differed by 3–10 % in every workload's
/// median `ops_per_s` and by up to 9 % in `setup_s`, while the spread
/// within a set was 1–7 % (11 % once, on `repro_sim`).
pub const END_TO_END: [(Metric, f64); 4] = [
    (
        Metric {
            name: "setup_s",
            unit: "s",
            better: Better::Lower,
        },
        0.25,
    ),
    (
        Metric {
            name: "ops_per_s",
            unit: "ops/s",
            better: Better::Higher,
        },
        0.25,
    ),
    (
        Metric {
            name: "peak_mem_mb",
            unit: "MB",
            better: Better::Lower,
        },
        0.10,
    ),
    (
        Metric {
            name: "pred_rel_err",
            unit: "ratio",
            better: Better::Lower,
        },
        0.10,
    ),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics of the traced run, probed at the workload's own
/// process count (see `probes.rs`). No bounds: they say where an
/// end-to-end move came from.
pub const PER_LAYER: [Metric; 60] = [
    m("topology.placement_build_us", "us", Lower),
    m("topology.placement_bytes", "bytes", Lower),
    m("topology.link_class_ns", "ns", Lower),
    m("core.plan_compile_us", "us", Lower),
    m("core.plan_signals", "count", Lower),
    m("core.plan_jitter_draws", "count", Lower),
    m("core.predict_ns_per_signal", "ns", Lower),
    m("core.verify_us", "us", Lower),
    m("core.repair_plan_us", "us", Lower),
    m("core.restrict_us", "us", Lower),
    m("stats.jitter_fill_ns_per_draw", "ns", Lower),
    m("stats.jitter_fill_share", "ratio", Lower),
    m("stats.fault_realize_us", "us", Lower),
    m("simnet.lane_ns_per_signal", "ns", Lower),
    m("simnet.lane_noiseless_ns_per_signal", "ns", Lower),
    m("simnet.stage_loop_share", "ratio", Lower),
    m("simnet.table_stream_ns_per_draw", "ns", Lower),
    m("simnet.net_signal_ns", "ns", Lower),
    m("simnet.scalar_ns_per_signal", "ns", Lower),
    m("simnet.faulty_ns_per_signal", "ns", Lower),
    m("simnet.faulty_neutral_ratio", "ratio", Lower),
    m("simnet.recovering_us_per_rep", "us", Lower),
    m("simnet.retries_per_rep", "count", Lower),
    m("simnet.lost_signals_per_rep", "count", Lower),
    m("simnet.recovered_share", "ratio", Higher),
    m("simnet.allocs_per_rep", "count", Lower),
    m("simnet.microbench_us_per_pair", "us", Lower),
    m("simnet.microbench_classes_ms", "ms", Lower),
    m("simnet.exchange_ns_per_msg", "ns", Lower),
    m("par.fanout_overhead_us", "us", Lower),
    m("par.speedup", "ratio", Higher),
    m("par.threads", "count", Higher),
    m("barriers.build_us", "us", Lower),
    m("barriers.greedy_us", "us", Lower),
    m("barriers.sss_us", "us", Lower),
    m("collectives.catalog_build_us", "us", Lower),
    m("collectives.exec_us_per_superstep", "us", Lower),
    m("bsplib.superstep_us", "us", Lower),
    m("bsplib.payload_mb_per_s", "MB/s", Higher),
    m("stencil.iter_us", "us", Lower),
    m("stencil.sweep_ns_per_cell", "ns", Lower),
    m("analyze.plan_us", "us", Lower),
    m("analyze.diagnostics", "count", Lower),
    m("repro.wall_s.fig5_6", "s", Lower),
    m("repro.wall_s.fig7_6", "s", Lower),
    m("repro.wall_s.fig8_10", "s", Lower),
    m("repro.wall_s.collectives", "s", Lower),
    m("repro.wall_s.coll_rt", "s", Lower),
    m("repro.wall_s.scale", "s", Lower),
    m("repro.wall_s.faults", "s", Lower),
    m("repro.wall_s.recovery", "s", Lower),
    m("repro.rows", "count", Higher),
    m("repro.csv_bytes", "bytes", Higher),
    m("repro.startup_ms", "ms", Lower),
    m("trace.overhead_share", "ratio", Lower),
    m("harness.batch_ms_p50", "ms", Lower),
    m("harness.batch_ms_tail", "ms", Lower),
    m("harness.batch_tail_pct", "%", Lower),
    m("harness.batches", "count", Higher),
    m("harness.fail_share", "ratio", Lower),
];

/// A traced run whose tracing overhead exceeds this share of the
/// untraced median batch is invalid.
pub const MAX_TRACE_OVERHEAD: f64 = 0.05;

/// Unit of a metric by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// `BENCHMARK.json`, exactly the keys the benchmark contract names.
pub fn benchmark_json() -> Json {
    let metric = |m: &Metric| {
        vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
        ]
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(m, bound)| {
                        let mut kv = metric(m);
                        kv.push(("bound", Json::Num(*bound)));
                        Json::obj(kv)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| Json::obj(metric(m))).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(is_name(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        for metric in END_TO_END.iter().map(|(m, _)| m).chain(&PER_LAYER) {
            assert!(is_name(metric.name), "{}", metric.name);
            assert!(
                is_unit(metric.unit),
                "{}: unit {}",
                metric.name,
                metric.unit
            );
            assert!(seen.insert(metric.name), "{} used twice", metric.name);
        }
        for (m, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|(m, _)| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.0.unit, setup.0.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|(_, b)| *b <= setup.1),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&WORKLOADS.len()) && PER_LAYER.len() <= 128);
    }

    #[test]
    fn workload_names_match_the_builders() {
        let declared: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(declared, crate::workloads::NAMES);
    }

    /// The committed `BENCHMARK.json` is `bench spec`, value for value.
    #[test]
    fn benchmark_json_matches_this_module() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text).expect("valid JSON"), benchmark_json());
    }
}
