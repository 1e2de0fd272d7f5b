//! A closed-loop spo-rpc/1 client over the daemon's Unix socket, and the
//! daemon's lifecycle (start, wait until it accepts, shut down, reap).

use crate::proc;
use spo_obs::json;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    /// The request line being sent, with its newline.
    out: Vec<u8>,
    line: String,
    next_id: u64,
}

/// The fields of a response the checks read.
pub struct Reply {
    pub status: String,
    pub report: Option<String>,
    pub exit_code: Option<u64>,
    pub error: Option<String>,
}

impl Client {
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(socket)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            line: String::new(),
            next_id: 0,
        })
    }

    /// Builds the request line for `method` with a JSON `params` object.
    pub fn request(&mut self, method: &str, params: &str) -> String {
        self.next_id += 1;
        format!(
            "{{\"spo-rpc\":1,\"id\":{},\"method\":\"{method}\",\"params\":{params}}}",
            self.next_id
        )
    }

    /// Sends one request line and parses its response.
    pub fn call(&mut self, request: &str) -> Result<Reply, String> {
        parse_reply(self.exchange(request)?)
    }

    /// Sends one request line and waits for its response line. Timed
    /// round trips call this and parse the reply after the clock stops.
    pub fn exchange(&mut self, request: &str) -> Result<&str, String> {
        // One write per request: a line split over two writes can wake
        // the daemon twice, which the measured round trip would include.
        self.out.clear();
        self.out.extend_from_slice(request.as_bytes());
        self.out.push(b'\n');
        self.writer
            .write_all(&self.out)
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_owned());
        }
        Ok(&self.line)
    }
}

/// Reads the fields the checks need straight from the response line.
/// `spo_obs::json::parse` re-validates the rest of the input for every
/// string character, which a listing-sized reply cannot afford.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    Ok(Reply {
        status: str_field(line, "status")?.ok_or("response has no status")?,
        report: str_field(line, "report")?,
        exit_code: u64_field(line, "exit_code"),
        error: str_field(line, "message")?,
    })
}

/// Byte offset just past the first `"key":` that lies outside every
/// string. The scan skips string contents, so an escaped `\"key\":` inside
/// a message or a report never matches, whatever the field order.
fn field_start(line: &str, key: &str) -> Option<usize> {
    let pattern = format!("\"{key}\":");
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' if line[i..].starts_with(&pattern) => return Some(i + pattern.len()),
            b'"' => {
                // Skip to the closing quote of this string.
                i += 1;
                loop {
                    i += line.get(i..)?.find(['"', '\\'])? + 1;
                    if bytes[i - 1] == b'"' {
                        break;
                    }
                    // An escape: step over the escaped character.
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    None
}

fn u64_field(line: &str, key: &str) -> Option<u64> {
    let rest = &line[field_start(line, key)?..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The unescaped value of the string field `key`, if present.
fn str_field(line: &str, key: &str) -> Result<Option<String>, String> {
    let Some(start) = field_start(line, key) else {
        return Ok(None);
    };
    let body = line[start..]
        .strip_prefix('"')
        .ok_or_else(|| format!("field {key} is not a string"))?;
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    loop {
        let stop = rest
            .find(['"', '\\'])
            .ok_or_else(|| format!("unterminated string in field {key}"))?;
        out.push_str(&rest[..stop]);
        if rest.as_bytes()[stop] == b'"' {
            return Ok(Some(out));
        }
        let esc = rest[stop + 1..].chars().next().ok_or("truncated escape")?;
        rest = &rest[stop + 2..];
        match esc {
            '"' | '\\' | '/' => out.push(esc),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'u' => {
                let hex = rest.get(..4).ok_or("truncated \\u escape")?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                rest = &rest[4..];
            }
            other => return Err(format!("bad escape \\{other} in field {key}")),
        }
    }
}

/// `{"name":…,"entry":…}` params of a query.
pub fn query_params(lib: &str, entry: Option<&str>) -> String {
    match entry {
        Some(sig) => format!("{{\"name\":\"{lib}\",\"entry\":\"{}\"}}", json::escape(sig)),
        None => format!("{{\"name\":\"{lib}\"}}"),
    }
}

pub fn diff_params(left: &str, right: &str) -> String {
    format!("{{\"left\":\"{left}\",\"right\":\"{right}\"}}")
}

pub fn load_params(lib: &str, paths: &[&str]) -> String {
    let quoted: Vec<String> = paths
        .iter()
        .map(|p| format!("\"{}\"", json::escape(p)))
        .collect();
    format!("{{\"name\":\"{lib}\",\"paths\":[{}]}}", quoted.join(","))
}

pub struct Daemon {
    child: Option<Child>,
    pub socket: PathBuf,
}

impl Daemon {
    /// Starts `spo serve` on `socket` and waits until it accepts.
    pub fn start(spo: &Path, socket: &Path, jobs: usize, log: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let jobs = jobs.to_string();
        let child = Command::new(spo)
            .args(["serve", "--socket", crate::check::path_str(socket)])
            .args(["--workers", &jobs, "--jobs", &jobs, "--no-cache"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(log).map_err(|e| e.to_string())?)
            .spawn()
            .map_err(|e| format!("start daemon: {e}"))?;
        let daemon = Daemon {
            child: Some(child),
            socket: socket.to_owned(),
        };
        let t0 = Instant::now();
        while UnixStream::connect(socket).is_err() {
            if t0.elapsed() > Duration::from_secs(30) {
                return Err(format!(
                    "daemon did not accept within 30 s: {}",
                    proc::stderr_excerpt(log)
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    /// Peak resident set so far, from `/proc` (KiB).
    pub fn peak_rss_kib(&self) -> i64 {
        let Some(child) = &self.child else { return 0 };
        std::fs::read_to_string(format!("/proc/{}/status", child.id()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.split_whitespace().next()?.parse().ok())
            })
            .unwrap_or(0)
    }

    /// Asks the daemon to shut down and reaps it; its exit code must be 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        let outcome = Client::connect(&self.socket)
            .map_err(|e| format!("connect: {e}"))
            .and_then(|mut c| {
                let req = c.request("shutdown", "{}");
                c.call(&req)
            });
        let child = self.child.take().expect("daemon is running");
        let exit = proc::reap(child).map_err(|e| format!("reap daemon: {e}"))?;
        outcome?;
        crate::check::check_exit(exit.code, 0)
    }
}

impl Drop for Daemon {
    /// A daemon left behind by an error path is killed and reaped.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_fields_match_the_reference_parser() {
        let report = "entry a.B.m(\"x\")\n\tMUST {} \\ é\u{1}";
        let line = format!(
            "{{\"spo-rpc\":1,\"id\":7,\"status\":\"ok\",\"result\":{{\"name\":\"jdk\",\"report\":\"{}\",\"exit_code\":1}}}}",
            json::escape(report)
        );
        let r = parse_reply(&line).unwrap();
        assert_eq!(r.status, "ok");
        assert_eq!(r.report.as_deref(), Some(report));
        let slow = json::parse(&line).unwrap();
        assert_eq!(
            r.report.as_deref(),
            slow.get("result")
                .and_then(|v| v.get("report"))
                .and_then(|v| v.as_str())
        );
        assert_eq!(r.exit_code, Some(1));
        assert_eq!(r.error, None);
        let err = parse_reply(r#"{"spo-rpc":1,"id":8,"status":"error","error":{"kind":"not-found","message":"no \"x\""}}"#).unwrap();
        assert_eq!(
            (err.status.as_str(), err.error.as_deref()),
            ("error", Some("no \"x\""))
        );
    }

    /// A key quoted inside a string value is not a field.
    #[test]
    fn escaped_keys_inside_strings_are_skipped() {
        let line = r#"{"spo-rpc":1,"id":9,"error":{"kind":"bad","message":"got \"report\":\"x\",\"status\":\"ok\",\"exit_code\":0"},"status":"error"}"#;
        let r = parse_reply(line).unwrap();
        assert_eq!(r.status, "error");
        assert_eq!(r.report, None);
        assert_eq!(r.exit_code, None);
        assert_eq!(
            r.error.as_deref(),
            Some(r#"got "report":"x","status":"ok","exit_code":0"#)
        );
        let report = "see \"exit_code\":7 and \\\"report\":";
        let line = format!(
            "{{\"status\":\"ok\",\"result\":{{\"report\":\"{}\",\"exit_code\":1}}}}",
            json::escape(report)
        );
        let r = parse_reply(&line).unwrap();
        assert_eq!(r.report.as_deref(), Some(report));
        assert_eq!(r.exit_code, Some(1));
    }
}
