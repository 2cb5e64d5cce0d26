//! Smoke test: every registered experiment runs at quick effort and
//! produces non-empty artifacts; the registry's lookup invariants hold.

use hpm_bench::experiments::{find, registry, run_experiment, Effort};

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
        let by_entry = (entry.run)(&root.join("by-entry"), &effort);
        assert_eq!(read(by_name), read(by_entry), "{id}");
    }
    std::fs::remove_dir_all(&root).ok();
}
