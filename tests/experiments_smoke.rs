//! Smoke test: every registered experiment runs at quick effort and
//! produces non-empty artifacts; the registry's lookup invariants hold;
//! the run-scoped profile table changes no byte and holds nothing past
//! a run.

use hpm_bench::experiments::{
    find, registry, run_experiment, run_experiments, Effort, Experiment, FitPoint, Profiles,
};
use std::path::Path;

#[test]
fn every_experiment_runs_and_writes_output() {
    let dir = std::env::temp_dir().join(format!("hpm-exp-smoke-{}", std::process::id()));
    let effort = Effort::quick();
    for e in registry() {
        let id = e.id;
        let paths = run_experiment(id, &dir, &effort)
            .unwrap_or_else(|| panic!("experiment {id} not found"));
        assert!(!paths.is_empty(), "{id} wrote nothing");
        for p in paths {
            let meta = std::fs::metadata(&p)
                .unwrap_or_else(|e| panic!("{id}: missing artifact {}: {e}", p.display()));
            assert!(meta.len() > 0, "{id}: empty artifact {}", p.display());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_experiment_is_rejected() {
    let dir = std::env::temp_dir();
    assert!(find("fig99_9").is_none());
    assert!(run_experiment("fig99_9", &dir, &Effort::quick()).is_none());
}

#[test]
fn registry_ids_are_unique() {
    let ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
    let mut dedup = ids.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(ids.len(), dedup.len(), "duplicate experiment ids");
}

/// `run_experiment` is `find` + the entry's `run`: both routes write the
/// same files with the same bytes.
#[test]
fn run_experiment_is_find_then_run() {
    let root = std::env::temp_dir().join(format!("hpm-exp-find-{}", std::process::id()));
    let effort = Effort::quick();
    let read = |paths: Vec<std::path::PathBuf>| -> Vec<(std::ffi::OsString, Vec<u8>)> {
        paths
            .iter()
            .map(|p| {
                let name = p.file_name().expect("file name").to_owned();
                (name, std::fs::read(p).expect("read artifact"))
            })
            .collect()
    };
    for id in ["fig5_2", "table7_1", "faults"] {
        let entry = find(id).expect("registered id");
        assert_eq!(entry.id, id);
        let by_name = run_experiment(id, &root.join("by-name"), &effort).expect("registered id");
        let mut table = Profiles::default();
        table.fit(&(entry.fits)(&effort), &effort);
        let by_entry = entry.run_on(&root.join("by-entry"), &effort, &mut table);
        assert_eq!(read(by_name), read(by_entry), "{id}");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Table 8.1 says what the figures ran: each A row lists the iterations
/// the run's effort gave the figures and exactly the implementation
/// columns of its figure's CSV, in order.
#[test]
fn table8_1_lists_what_the_a_series_ran() {
    let dir = std::env::temp_dir().join(format!("hpm-exp-table8_1-{}", std::process::id()));
    let ids = ["table8_1", "fig8_4", "fig8_5", "fig8_6", "fig8_7"];
    let effort = Effort::quick();
    run_experiments(&ids, &dir, &effort, || 0.0).expect("registered ids");
    let table = std::fs::read_to_string(dir.join("table8_1.txt")).expect("read table");
    let rows: Vec<Vec<&str>> = table
        .lines()
        .map(|l| l.split_whitespace().collect())
        .filter(|f: &Vec<&str>| f[0].starts_with('A'))
        .collect();
    let artifacts = ["fig8_4_A1", "fig8_5_A2", "fig8_6_A3", "fig8_7_A4"];
    assert_eq!(rows.len(), artifacts.len());
    for (row, name) in rows.iter().zip(artifacts) {
        assert!(name.ends_with(row[0]), "{name} is not row {}", row[0]);
        assert_eq!(
            row[2],
            effort.stencil_iters.to_string(),
            "{name} iterations"
        );
        let csv = std::fs::read_to_string(dir.join(format!("{name}.csv"))).expect("read csv");
        let header = csv.lines().next().expect("csv header");
        let columns = header.strip_prefix("P,").expect("P column first");
        assert_eq!(row[3..].join(" "), columns.replace(',', ", "), "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The registry's simulated ids: every id but the host-clock ones,
/// whose bytes are host timings.
fn simulated_ids() -> Vec<&'static str> {
    registry()
        .iter()
        .filter(|e| e.stochastic != "host-clock")
        .map(|e| e.id)
        .collect()
}

/// Every file under `dir`, by name, with its bytes.
fn read_dir_sorted(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("read output dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let bytes = std::fs::read(&path).expect("read artifact");
            (path.file_name().expect("file name").to_owned(), bytes)
        })
        .collect();
    files.sort();
    files
}

/// One `run_experiments` call over the 26 simulated ids writes the files
/// 26 single-id runs write, byte for byte, whatever the order of the ids
/// and when an id repeats: a profile is a function of its point alone,
/// so which experiment fitted it cannot show.
#[test]
fn one_run_writes_what_single_id_runs_write() {
    let root = std::env::temp_dir().join(format!("hpm-exp-runner-{}", std::process::id()));
    let effort = Effort::quick();
    let ids = simulated_ids();
    assert_eq!(ids.len(), 26);
    let single = root.join("single");
    for id in &ids {
        run_experiment(id, &single, &effort).expect("registered id");
    }
    let want = read_dir_sorted(&single);
    assert_eq!(want.len(), 41);
    let reversed: Vec<&str> = ids.iter().rev().copied().collect();
    let mut repeated = ids.clone();
    repeated.insert(13, "fig5_6");
    for (name, order) in [
        ("registry", &ids),
        ("reversed", &reversed),
        ("repeated", &repeated),
    ] {
        let dir = root.join(name);
        let runs = run_experiments(order, &dir, &effort, || 0.0).expect("registered ids");
        assert_eq!(runs.len(), order.len(), "{name}");
        assert_eq!(read_dir_sorted(&dir), want, "{name} order");
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Each experiment's `fits` is exactly what its `run` reads: against a
/// table holding the declared points, each once, the run succeeds; with
/// any one of them missing it panics, naming the experiment. So every
/// declared point is read, and a request for an undeclared one fails
/// loudly instead of fitting behind the runner's back.
#[test]
fn every_experiment_reads_exactly_its_declared_points() {
    let root = std::env::temp_dir().join(format!("hpm-exp-fits-{}", std::process::id()));
    let effort = Effort::quick();
    let mut profile_readers = 0;
    for e in registry() {
        let points = (e.fits)(&effort);
        for (k, point) in points.iter().enumerate() {
            assert!(!points[..k].contains(point), "{}: {point:?} twice", e.id);
        }
        if points.is_empty() {
            continue;
        }
        profile_readers += 1;
        let mut table = Profiles::default();
        assert_eq!(table.fit(&points, &effort), points.len());
        assert!(!e.run_on(&root, &effort, &mut table).is_empty(), "{}", e.id);
        for missing in &points {
            let mut short = table.clone();
            short.retain(|point| point != missing);
            let message = undeclared_read_panic(e, &root, &effort, &mut short)
                .unwrap_or_else(|| panic!("{} never read {missing:?}", e.id));
            assert!(
                message.contains(e.id) && message.contains(&format!("{missing:?}")),
                "{}: panic message {message:?} names neither the id nor the point",
                e.id
            );
        }
    }
    assert_eq!(profile_readers, 14);
    std::fs::remove_dir_all(&root).ok();
}

/// Runs `e` on one worker against `table`; the panic message, if it
/// panicked.
fn undeclared_read_panic(
    e: &Experiment,
    dir: &Path,
    effort: &Effort,
    table: &mut Profiles,
) -> Option<String> {
    let run = std::panic::AssertUnwindSafe(|| {
        hpm::par::with_threads(Some(1), || e.run_on(dir, effort, table))
    });
    let payload = std::panic::catch_unwind(run).err()?;
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
    Some(message.unwrap_or_default())
}

/// The runner fits each point once per run, keeps a profile only while
/// a later experiment declares it, and ends with an empty table.
#[test]
fn the_profile_table_is_empty_when_a_run_ends() {
    let root = std::env::temp_dir().join(format!("hpm-exp-held-{}", std::process::id()));
    let effort = Effort::quick();
    let ids = [
        "fig5_6",
        "fig7_6",
        "fig8_10",
        "collectives",
        "coll_rt",
        "scale",
    ];
    let declared: Vec<Vec<FitPoint>> = ids
        .iter()
        .map(|id| (find(id).expect("registered id").fits)(&effort))
        .collect();
    let runs = run_experiments(&ids, &root, &effort, || 0.0).expect("registered ids");
    let mut seen: Vec<FitPoint> = Vec::new();
    for (k, run) in runs.iter().enumerate() {
        let new: Vec<FitPoint> = declared[k]
            .iter()
            .filter(|point| !seen.contains(point))
            .copied()
            .collect();
        assert_eq!(run.fitted, new.len(), "{}", ids[k]);
        assert_eq!(run.reused, declared[k].len() - new.len(), "{}", ids[k]);
        seen.extend(new);
        let held = seen
            .iter()
            .filter(|point| declared[k + 1..].iter().any(|d| d.contains(point)))
            .count();
        assert_eq!(run.held, held, "{}", ids[k]);
    }
    assert_eq!(runs.last().expect("runs").held, 0);
    std::fs::remove_dir_all(&root).ok();
}
