//! End-to-end tests of the flight-recorder tracing surface: `--trace-out`
//! on the one-shot commands, the determinism boundary (report bytes are
//! byte-identical with tracing on or off, warm or cold, at any `--jobs`),
//! `stats-validate --schema spo-trace/1`, and the daemon's per-request
//! trace capture (`trace_id` round-trip, `spo trace` retrieval).

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Output};

fn spo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spo"))
        .args(args)
        .output()
        .expect("spo binary runs")
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spo-trace-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_temp(name: &str, content: &str) -> PathBuf {
    let path = temp_dir().join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const RUNTIME: &str = r#"
class java.lang.SecurityManager {
  method public native void checkRead(java.lang.String file);
  method public native void checkWrite(java.lang.Object file);
}
class java.lang.System {
  field static java.lang.SecurityManager security;
  method public static java.lang.SecurityManager getSecurityManager() {
    local java.lang.SecurityManager sm;
    sm = java.lang.System.security;
    return sm;
  }
}
"#;

const API: &str = r#"
class api.F {
  method public void read(java.lang.String p) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if sm == null goto go;
    virtualinvoke sm.checkRead(p);
  go:
    staticinvoke api.F.read0(p);
    return;
  }
  method public void write(java.lang.String p) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if sm == null goto go;
    virtualinvoke sm.checkWrite(p);
  go:
    staticinvoke api.F.write0(p);
    return;
  }
  method private static native void read0(java.lang.String p);
  method private static native void write0(java.lang.String p);
}
"#;

/// The complete events named `name` in a capture, one line each.
fn spans<'d>(doc: &'d str, name: &str) -> Vec<&'d str> {
    let key = format!("{{\"name\":\"{name}\",");
    doc.lines()
        .filter(|l| l.contains(&key) && l.contains("\"ph\":\"X\""))
        .collect()
}

/// Counts complete events named `name` in a capture.
fn spans_named(doc: &str, name: &str) -> usize {
    spans(doc, name).len()
}

/// The `(ts, dur)` of the first complete event named `name`, in
/// microseconds.
fn span_time(doc: &str, name: &str) -> (f64, f64) {
    let line = spans(doc, name)[0];
    let field = |key: &str| -> f64 {
        let rest = &line[line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3..];
        let end = rest.find([',', '}']).unwrap();
        rest[..end].parse().unwrap()
    };
    (field("ts"), field("dur"))
}

/// The `cli` lane of an analyze, export or diff capture covers the whole
/// command around the engine: a `load` per side holding one `parse` per
/// input file, then one `render`, one `write`, and a `teardown` that
/// starts once `write` has ended.
fn assert_cli_phases(doc: &str, sides: usize, files: usize) {
    assert!(
        doc.contains("\"args\":{\"name\":\"cli\"}"),
        "cli lane present"
    );
    assert_eq!(spans_named(doc, "load"), sides, "one load span per side");
    assert_eq!(spans_named(doc, "parse"), files, "one parse span per file");
    assert_eq!(spans_named(doc, "render"), 1);
    assert_eq!(spans_named(doc, "write"), 1);
    assert_eq!(spans_named(doc, "teardown"), 1);
    let (write_ts, write_dur) = span_time(doc, "write");
    let (teardown_ts, _) = span_time(doc, "teardown");
    assert!(
        teardown_ts >= write_ts + write_dur,
        "teardown ({teardown_ts}) follows write ({write_ts} + {write_dur})"
    );
}

#[test]
fn traced_analyze_emits_valid_trace_and_identical_report() {
    let rt = write_temp("rt.jir", RUNTIME);
    let api = write_temp("api.jir", API);
    let trace_path = temp_dir().join("analyze.trace.json");
    let traced = spo(&[
        "analyze",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--jobs",
        "4",
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    assert!(traced.status.success(), "{traced:?}");
    let plain = spo(&[
        "analyze",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--jobs",
        "2",
    ]);
    assert!(plain.status.success());
    assert_eq!(
        traced.stdout, plain.stdout,
        "report bytes are identical with tracing on or off, at any --jobs"
    );
    let doc = std::fs::read_to_string(&trace_path).unwrap();
    spo_obs::json::validate_trace(&doc).expect("capture conforms to spo-trace/1");
    assert!(doc.contains("/main"), "main lane present");
    assert!(doc.contains("/worker00"), "one lane per engine worker");
    assert!(doc.contains("\"fixpoint\""), "dataflow spans present");
    assert_cli_phases(&doc, 1, 2);
    // The versioned validator is also reachable through the CLI.
    let validated = spo(&[
        "stats-validate",
        "--schema",
        "spo-trace/1",
        trace_path.to_str().unwrap(),
    ]);
    assert!(validated.status.success(), "{validated:?}");
    // A trace document is not a stats snapshot; the default schema rejects it.
    let cross = spo(&["stats-validate", trace_path.to_str().unwrap()]);
    assert_eq!(cross.status.code(), Some(3));
}

#[test]
fn traced_diff_and_check_write_captures_without_touching_stdout() {
    let rt = write_temp("rt2.jir", RUNTIME);
    let api = write_temp("api2.jir", API);
    let diff_trace = temp_dir().join("diff.trace.json");
    let traced = spo(&[
        "diff",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--vs",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--trace-out",
        diff_trace.to_str().unwrap(),
    ]);
    let plain = spo(&[
        "diff",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--vs",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
    ]);
    assert_eq!(traced.status.code(), plain.status.code());
    assert_eq!(traced.stdout, plain.stdout, "diff bytes undisturbed");
    let doc = std::fs::read_to_string(&diff_trace).unwrap();
    spo_obs::json::validate_trace(&doc).unwrap();
    assert!(doc.contains("left/"), "left analysis lanes");
    assert!(doc.contains("right/"), "right analysis lanes");
    assert_cli_phases(&doc, 2, 4);

    let export_trace = temp_dir().join("export.trace.json");
    let exported = spo(&[
        "export",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--trace-out",
        export_trace.to_str().unwrap(),
    ]);
    assert!(exported.status.success(), "{exported:?}");
    let doc = std::fs::read_to_string(&export_trace).unwrap();
    spo_obs::json::validate_trace(&doc).unwrap();
    assert_cli_phases(&doc, 1, 2);

    let check_trace = temp_dir().join("check.trace.json");
    let checked = spo(&[
        "check",
        rt.to_str().unwrap(),
        api.to_str().unwrap(),
        "--trace-out",
        check_trace.to_str().unwrap(),
    ]);
    assert!(checked.status.success(), "{checked:?}");
    let doc = std::fs::read_to_string(&check_trace).unwrap();
    spo_obs::json::validate_trace(&doc).unwrap();
    assert!(
        doc.contains("\"call-graph\""),
        "check phases on the timeline"
    );
}

#[test]
fn daemon_round_trips_trace_ids_and_serves_captures() {
    let rt = write_temp("rt3.jir", RUNTIME);
    let api = write_temp("api3.jir", API);
    let socket = temp_dir().join("traced.sock");
    let _ = std::fs::remove_file(&socket);
    let load = format!("lib={},{}", rt.to_str().unwrap(), api.to_str().unwrap());
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_spo"))
        .args([
            "serve",
            "--socket",
            socket.to_str().unwrap(),
            "--no-cache",
            "--load",
            &load,
        ])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon starts");
    while !socket.exists() {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let stream = std::os::unix::net::UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;
    let mut rpc = |line: &str| -> String {
        writeln!(stream, "{line}").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response.trim_end().to_owned()
    };
    let traced = rpc(
        r#"{"spo-rpc":1,"id":1,"method":"analyze","params":{"name":"lib"},"trace_id":"e2e-1"}"#,
    );
    assert!(
        traced.contains(r#""status":"ok","trace_id":"e2e-1""#),
        "envelope echoes the client's trace id: {traced}"
    );
    let untraced = rpc(r#"{"spo-rpc":1,"id":2,"method":"analyze","params":{"name":"lib"}}"#);
    assert!(
        !untraced.contains("trace_id"),
        "untraced responses stay byte-compatible: {untraced}"
    );
    drop(stream);
    drop(reader);
    // Retrieval through the dedicated subcommand, written to a file.
    let out_path = temp_dir().join("fetched.trace.json");
    let fetched = spo(&[
        "trace",
        "--socket",
        socket.to_str().unwrap(),
        "--trace-id",
        "e2e-1",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(fetched.status.success(), "{fetched:?}");
    let doc = std::fs::read_to_string(&out_path).unwrap();
    spo_obs::json::validate_trace(&doc).expect("fetched capture conforms to spo-trace/1");
    assert!(doc.contains("queue.wait"), "admission latency captured");
    // Unknown ids fail typed, through the same subcommand.
    let missing = spo(&[
        "trace",
        "--socket",
        socket.to_str().unwrap(),
        "--trace-id",
        "nope",
    ]);
    assert_eq!(missing.status.code(), Some(3));
    let bye = spo(&[
        "rpc",
        "--socket",
        socket.to_str().unwrap(),
        r#"{"spo-rpc":1,"id":9,"method":"shutdown"}"#,
    ]);
    assert!(bye.status.success(), "{bye:?}");
    let status = daemon.wait().expect("daemon drains");
    assert!(status.success());
}
