//! Protocol robustness: the hostile NDJSON corpus.
//!
//! `tests/fixtures/hostile.ndjson` is a checked-in file of adversarial
//! request lines — deep nesting, mispaired surrogate escapes, huge and
//! malformed numbers, truncated frames, raw control characters,
//! oversized keys. Replayed against the real `coded --stdin` binary,
//! the daemon must (a) never panic or crash, (b) emit exactly one
//! well-formed JSON reply per line, and (c) reply deterministically.
//! The corpus is valid UTF-8 text; byte-level framing (non-UTF-8 and
//! over-long lines, CRLF, a missing final newline, a mid-stream
//! shutdown) is covered in-process below, through `wire::serve_stream`,
//! the one stream loop both tiers run.

use codar_service::json::Json;
use codar_service::wire::{self, BadFrame, Endpoint, MAX_REQUEST_LINE_BYTES};
use codar_service::{Proxy, ProxyConfig, Service, ServiceConfig, ShardFleet};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/hostile.ndjson")
}

fn replay() -> String {
    let corpus = std::fs::File::open(corpus_path()).expect("hostile corpus fixture");
    let output = Command::new(env!("CARGO_BIN_EXE_coded"))
        .arg("--stdin")
        .stdin(Stdio::from(corpus))
        .output()
        .expect("spawn coded");
    assert!(
        output.status.success(),
        "coded --stdin crashed on the hostile corpus: {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("replies are UTF-8")
}

#[test]
fn hostile_corpus_gets_one_well_formed_error_reply_per_line() {
    let corpus = std::fs::read_to_string(corpus_path()).expect("read corpus");
    let requests: Vec<&str> = corpus.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(requests.len() >= 30, "corpus shrank to {}", requests.len());

    let replies = replay();
    let reply_lines: Vec<&str> = replies.lines().collect();
    assert_eq!(
        reply_lines.len(),
        requests.len(),
        "exactly one reply per corpus line"
    );
    for (request, reply) in requests.iter().zip(&reply_lines) {
        let parsed = Json::parse(reply)
            .unwrap_or_else(|e| panic!("reply to `{request}` is not JSON ({e}): {reply}"));
        let status = parsed.get("status").and_then(Json::as_str);
        assert!(
            status.is_some(),
            "reply to `{request}` lacks a status: {reply}"
        );
        // Every corpus line is hostile; none may succeed as a route.
        assert_ne!(
            parsed.get("type").and_then(Json::as_str),
            Some("route"),
            "hostile line `{request}` routed successfully: {reply}"
        );
    }

    // Deterministic: the same corpus replays to the same bytes, up to
    // measurement normalization (the corpus probes `"hist":true`, whose
    // latency sums and bucket rows are wall-clock; everything decided —
    // statuses, counts, echoes, field order — stays byte-checked).
    let normalized = |text: &str| -> String {
        text.lines()
            .map(codar_service::fuzz::normalize_reply)
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        normalized(&replies),
        normalized(&replay()),
        "hostile replies diverged across runs"
    );
}

/// A line that is not UTF-8 gets one well-formed error reply and the
/// stream keeps going; the valid lines around it are answered exactly
/// as they are in an all-valid stream (CRLF and a missing final newline
/// included).
#[test]
fn non_utf8_line_is_answered_and_the_stream_continues() {
    let serve = |input: &[u8]| {
        let service = Service::start(ServiceConfig::default());
        let mut out = Vec::new();
        wire::serve_stream(&service, input, &mut out).expect("stream served");
        String::from_utf8(out).expect("replies are UTF-8")
    };
    let valid = serve(b"{\"type\":\"devices\",\"id\":1}\r\n\n{\"type\":\"devices\",\"id\":3}");
    let mixed = serve(
        b"{\"type\":\"devices\",\"id\":1}\r\n{\"type\":\"st\xffats\",\"id\":2}\n\xc0\n{\"type\":\"devices\",\"id\":3}",
    );
    let valid: Vec<&str> = valid.lines().collect();
    let mixed: Vec<&str> = mixed.lines().collect();
    assert_eq!(valid.len(), 2);
    assert_eq!(
        mixed,
        [
            valid[0],
            &BadFrame::NotUtf8.body(),
            &BadFrame::NotUtf8.body(),
            valid[1]
        ]
    );
}

/// Serves `input` as one stream and returns the reply lines.
fn serve_lines(endpoint: &impl Endpoint, input: &[u8]) -> Vec<String> {
    let mut out = Vec::new();
    wire::serve_stream(endpoint, input, &mut out).expect("stream served");
    String::from_utf8(out)
        .expect("replies are UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

/// The stream contract, table-driven over both tiers: the same bytes
/// through a `Service` and through a 1-backend `Proxy` get one reply per
/// non-blank line, up to and including a shutdown ack, and nothing
/// after it. Each reply is what a fresh daemon answers for that line,
/// or the framer's error body for a line it cannot hand over.
#[test]
fn both_tiers_answer_one_reply_per_line_until_shutdown() {
    let direct = |line: &str| Service::start(ServiceConfig::default()).handle_line(line);
    let devices = |id: u64| format!("{{\"type\":\"devices\",\"id\":{id}}}");
    let route = "{\"type\":\"route\",\"id\":4,\"device\":\"q5\",\"circuit\":\
                 \"qreg q[3]; h q[0]; cx q[0], q[2];\"}";
    let shutdown = "{\"type\":\"shutdown\",\"id\":5}";
    let over_long = vec![b'x'; MAX_REQUEST_LINE_BYTES + 100];
    let rows: [(&str, Vec<u8>, Vec<String>); 2] = [
        (
            "blank, CRLF, non-UTF-8, over-long, no final newline",
            [
                format!("\n{}\r\n\n  \r\n", devices(1)).as_bytes(),
                b"\xff\xfe\n",
                &over_long,
                format!("\n{route}\r\n{}", devices(3)).as_bytes(),
            ]
            .concat(),
            vec![
                direct(&devices(1)),
                BadFrame::NotUtf8.body(),
                BadFrame::TooLong.body(),
                direct(route),
                direct(&devices(3)),
            ],
        ),
        (
            "shutdown mid-stream",
            format!("{}\n\n{shutdown}\n{}\n{route}\n", devices(1), devices(2)).into_bytes(),
            vec![direct(&devices(1)), direct(shutdown)],
        ),
    ];
    for (name, input, expected) in &rows {
        let daemon = Service::start(ServiceConfig::default());
        assert_eq!(&serve_lines(&daemon, input), expected, "daemon: {name}");

        let mut fleet = ShardFleet::start(
            &ServiceConfig::default(),
            &[None],
            Duration::from_millis(300),
        )
        .expect("fleet starts");
        let proxy = Proxy::start(ProxyConfig {
            backends: fleet.addrs(),
            probe_interval: Duration::from_secs(3600),
            ..ProxyConfig::default()
        })
        .expect("proxy starts");
        assert_eq!(&serve_lines(&proxy, input), expected, "proxy: {name}");
        fleet.shutdown();
    }
}
