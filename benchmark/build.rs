//! Records the compiler that built the benchmark, for the host
//! fingerprint in every report.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string());
    println!("cargo:rustc-env=P2P_BENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
