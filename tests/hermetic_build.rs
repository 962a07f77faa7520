//! The build needs no registry: every package the committed lockfile
//! names comes from a path inside this repository. A dependency with a
//! `source` would break `cargo build` wherever the network is down.

#[test]
fn lockfile_names_no_registry_or_git_source() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.lock");
    let lock = std::fs::read_to_string(path).expect("Cargo.lock is committed at the root");
    assert!(
        lock.contains("name = \"p2p-index\""),
        "not this workspace's lockfile"
    );
    let sourced: Vec<&str> = lock
        .lines()
        .filter(|line| line.trim_start().starts_with("source = "))
        .collect();
    assert!(
        sourced.is_empty(),
        "packages from outside the repository: {sourced:?}"
    );
}
