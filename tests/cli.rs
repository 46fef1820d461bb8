//! End-to-end tests of the `codar` command-line binary.
//!
//! The CLI resolves router names with `RouterKind::parse`, the parser
//! the engine and the daemon use, so it is driven here through the
//! same name table as the daemon's protocol test: every canonical
//! name, its upper-case form, and the aliases. The stdout of `route
//! --emit` and `compare` on one small circuit is pinned byte for byte
//! in `tests/fixtures/cli/`.

use codar_repro::engine::RouterKind;
use std::path::Path;
use std::process::{Command, Output};

const CIRCUIT: &str = "tests/fixtures/cli/small.qasm";

/// Runs `codar` from the package root, so the circuit path printed in
/// its reports is the relative [`CIRCUIT`] path the goldens carry.
fn codar(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_codar"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn codar")
}

fn stdout_of(args: &[&str]) -> String {
    let output = codar(args);
    assert!(
        output.status.success(),
        "codar {args:?} exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/cli")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn route_accepts_every_canonical_router_name_and_alias() {
    let cases: Vec<(String, RouterKind)> = RouterKind::ALL
        .iter()
        .flat_map(|&kind| {
            [
                (kind.name().to_string(), kind),
                (kind.name().to_ascii_uppercase(), kind),
            ]
        })
        .chain([
            ("codar_cal".to_string(), RouterKind::CodarCal),
            ("codarcal".to_string(), RouterKind::CodarCal),
            ("portfolio".to_string(), RouterKind::Portfolio),
            ("Portfolio".to_string(), RouterKind::Portfolio),
        ])
        .collect();
    for (name, expected) in cases {
        let stdout = stdout_of(&["route", CIRCUIT, "--router", &name]);
        let header = stdout.lines().next().unwrap_or_default();
        assert!(
            header.ends_with(&format!(" via {}:", expected.name())),
            "`{name}` routed as `{header}`"
        );
        assert!(stdout.contains("verified:        coupling + semantics OK"));
    }
}

#[test]
fn route_rejects_near_miss_router_names() {
    for bad in ["auto ", " auto", "portfolio!", "codar cal", "best"] {
        let output = codar(&["route", CIRCUIT, "--router", bad]);
        assert_eq!(output.status.code(), Some(1), "`{bad}` must exit 1");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("unknown router"), "`{bad}` -> {stderr}");
        assert!(output.stdout.is_empty(), "`{bad}` printed a report");
    }
}

#[test]
fn route_emit_stdout_matches_golden() {
    for router in ["codar", "sabre", "greedy"] {
        assert_eq!(
            stdout_of(&["route", CIRCUIT, "--router", router, "--emit"]),
            golden(&format!("route_{router}.stdout")),
            "`codar route --router {router} --emit` drifted"
        );
    }
}

#[test]
fn compare_stdout_matches_golden() {
    assert_eq!(stdout_of(&["compare", CIRCUIT]), golden("compare.stdout"));
}
