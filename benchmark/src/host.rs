//! The host fingerprint printed with every report: enough to tell whether
//! two results are comparable.

use std::path::Path;

use crate::json::{obj, Json};

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `"unknown"` outside a git checkout (the
/// acceptance driver runs from a plain directory).
fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn fingerprint() -> Json {
    let nproc = nproc();
    obj([
        ("nproc", Json::from(nproc as u64)),
        ("rustc", Json::from(env!("P2P_BENCH_RUSTC"))),
        ("commit", Json::from(commit())),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        // rand, bytes, serde and parking_lot are the path stand-ins under
        // shims/, not the published crates.
        ("deps", Json::from("stand-ins")),
        // A quorum read keeps two servers and the client busy at once and
        // five repair threads run beside them: under four cores the
        // threads of one request already queue for a core.
        ("undersized_host", Json::from(nproc < 4)),
    ])
}
