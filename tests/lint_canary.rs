//! Canary for the workspace lint table (`[workspace.lints]` in the root
//! `Cargo.toml` plus `clippy.toml`), which enforces the determinism
//! contract.
//!
//! Each `_`-named fn below uses exactly one banned construct under an
//! `#[expect]`. If the table stops banning that construct, the
//! expectation goes unfulfilled and `cargo clippy --workspace
//! --all-targets -- -D warnings` fails with `unfulfilled_lint_expectations`.
//! Plain `cargo build` and `cargo test` do not run clippy, so they ignore
//! these attributes. None of the fns is ever called.
//!
//! The one `#[test]` checks the other half: a member that does not opt
//! into the table escapes every lint in it, `unsafe_code` included.

use std::fs;
use std::path::{Path, PathBuf};

#[expect(clippy::disallowed_types, reason = "canary: HashMap")]
fn _hash_map() -> std::collections::HashMap<u8, u8> {
    Default::default()
}

#[expect(clippy::disallowed_types, reason = "canary: HashSet")]
fn _hash_set() -> std::collections::HashSet<u8> {
    Default::default()
}

#[expect(clippy::disallowed_types, reason = "canary: RandomState")]
fn _random_state() -> std::hash::RandomState {
    Default::default()
}

#[expect(clippy::disallowed_methods, reason = "canary: Instant::now")]
fn _instant_now() -> std::time::Instant {
    std::time::Instant::now()
}

#[expect(clippy::disallowed_types, reason = "canary: SystemTime")]
fn _system_time() -> std::time::SystemTime {
    std::time::UNIX_EPOCH
}

#[expect(clippy::disallowed_types, reason = "canary: Cell")]
fn _cell() -> std::cell::Cell<u8> {
    Default::default()
}

#[expect(clippy::disallowed_types, reason = "canary: RefCell")]
fn _ref_cell() -> std::cell::RefCell<u8> {
    Default::default()
}

#[expect(clippy::disallowed_types, reason = "canary: Mutex")]
fn _mutex() -> std::sync::Mutex<u8> {
    Default::default()
}

#[expect(clippy::disallowed_types, reason = "canary: RwLock")]
fn _rw_lock() -> std::sync::RwLock<u8> {
    Default::default()
}

#[expect(clippy::disallowed_types, reason = "canary: an atomic")]
fn _atomic() -> std::sync::atomic::AtomicU64 {
    Default::default()
}

#[expect(clippy::todo, reason = "canary: todo!")]
fn _todo() {
    todo!()
}

#[expect(clippy::unimplemented, reason = "canary: unimplemented!")]
fn _unimplemented() {
    unimplemented!()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits one level below the workspace root")
        .to_path_buf()
}

/// The directories `[workspace] members` names, with `dir/*` globs
/// expanded to every child holding a `Cargo.toml`.
fn members(root_manifest: &str, root: &Path) -> Vec<PathBuf> {
    let line = root_manifest
        .lines()
        .find(|l| l.trim_start().starts_with("members"))
        .expect("the root manifest lists its members on one line");
    let mut dirs = Vec::new();
    for entry in line.split('"').skip(1).step_by(2) {
        match entry.strip_suffix("/*") {
            Some(parent) => {
                for child in fs::read_dir(root.join(parent)).expect("member glob directory") {
                    let dir = child.expect("directory entry").path();
                    if dir.join("Cargo.toml").is_file() {
                        dirs.push(dir);
                    }
                }
            }
            None => dirs.push(root.join(entry)),
        }
    }
    dirs.sort();
    dirs
}

#[test]
fn every_member_outside_vendor_opts_into_the_workspace_lints() {
    let root = repo_root();
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    assert!(
        root_manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\"\n"),
        "the workspace lint table must forbid unsafe code"
    );
    let checked: Vec<PathBuf> = members(&root_manifest, &root)
        .into_iter()
        .filter(|dir| !dir.starts_with(root.join("vendor")))
        .collect();
    assert!(checked.len() >= 16, "found only {checked:?}");
    for dir in &checked {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("member Cargo.toml");
        assert!(
            manifest.contains("\n[lints]\nworkspace = true\n"),
            "{} must opt into the workspace lint table with `[lints] workspace = true`",
            dir.display()
        );
    }
}
