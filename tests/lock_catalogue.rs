//! The lock table of `docs/INVARIANTS.md` names exactly the lock classes
//! the workspace's sources construct, so a removed or added lock cannot
//! leave the table stale.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Adds the class literal of every facade `Mutex::new` / `RwLock::new` in
/// `source` to `classes`, also when the constructor spans lines; `test.*`
/// classes (locks of unit tests) are left out.
fn scan(source: &str, classes: &mut BTreeSet<String>) {
    for ctor in ["Mutex::new(", "RwLock::new("] {
        for (at, _) in source.match_indices(ctor) {
            let argument = source[at + ctor.len()..].trim_start();
            let Some(literal) = argument.strip_prefix('"') else {
                continue;
            };
            let class = &literal[..literal.find('"').expect("closing quote")];
            if !class.starts_with("test.") {
                classes.insert(class.to_string());
            }
        }
    }
}

/// The lock classes constructed under `crates/*/src`.
fn constructed_classes() -> BTreeSet<String> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(crates)
        .expect("crates directory")
        .map(|entry| entry.expect("crate entry").path().join("src"))
        .filter(|src| src.is_dir())
        .collect();
    let mut classes = BTreeSet::new();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("source directory") {
            let path = entry.expect("source entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                scan(
                    &std::fs::read_to_string(&path).expect("readable source"),
                    &mut classes,
                );
            }
        }
    }
    classes
}

/// The class column of the lock table in `docs/INVARIANTS.md`'s "Lock
/// classes and ordering" section.
fn documented_classes() -> BTreeSet<String> {
    include_str!("../docs/INVARIANTS.md")
        .split("\n## ")
        .find(|section| section.starts_with("Lock classes"))
        .expect("the doc has a lock table")
        .lines()
        .filter_map(|line| {
            let class = line.strip_prefix("| ")?.split(" | ").nth(1)?;
            Some(class.strip_prefix('`')?.strip_suffix('`')?.to_string())
        })
        .collect()
}

#[test]
fn lock_table_matches_the_constructed_classes() {
    let constructed = constructed_classes();
    let documented = documented_classes();
    assert!(
        constructed.contains("engine.session_pool"),
        "the scan must find the engine's locks: {constructed:?}"
    );
    let undocumented: Vec<_> = constructed.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&constructed).collect();
    assert!(
        undocumented.is_empty(),
        "constructed but missing from the lock table: {undocumented:?}"
    );
    assert!(
        stale.is_empty(),
        "in the lock table but never constructed: {stale:?}"
    );
}

#[test]
fn scan_reads_constructors_that_span_lines() {
    let mut classes = BTreeSet::new();
    scan(
        "let a = Mutex::new(\n    \"outer.a\",\n    0,\n);\n\
         let b = RwLock::new(\"outer.b\", 0);\n\
         let t = Mutex::new(\"test.ignored\", 0);\n\
         let raw = std::sync::Mutex::new(value);",
        &mut classes,
    );
    let expected: BTreeSet<String> = ["outer.a", "outer.b"].map(String::from).into();
    assert_eq!(classes, expected);
}
