//! A blocking HTTP client for ccdpd, and a handle on a spawned daemon.
//!
//! Used by `loadgen`, `chaos` and the end-to-end tests. Every exchange is
//! one request on a fresh connection, read to EOF (the server answers with
//! `Connection: close`), so the raw bytes are exactly what the server sent
//! and can be compared byte for byte. [`parse_response`] is strict: a
//! response must carry a status line and a `Content-Length`, its body must
//! be complete, and any bytes past it are reported as `excess` — a
//! duplicated or corrupted reply.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ccdp_json::Json;

/// Send `request` on a fresh connection and read the reply to EOF. An
/// empty reply is an error: the server closed without answering.
pub fn exchange(addr: &str, request: &[u8]) -> Result<Vec<u8>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
    stream.set_nodelay(true).ok();
    stream.write_all(request).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read: {e}"))?;
    if raw.is_empty() {
        return Err("empty response".to_string());
    }
    Ok(raw)
}

/// POST `body` to `/jobs`; the raw response bytes.
pub fn post_job(addr: &str, body: &str) -> Result<Vec<u8>, String> {
    let req = format!(
        "POST /jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, req.as_bytes())
}

/// GET `path`; the raw response bytes.
pub fn get(addr: &str, path: &str) -> Result<Vec<u8>, String> {
    exchange(addr, format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
}

/// The server's `/stats` document, or `Json::Null` when it cannot be read.
pub fn stats(addr: &str) -> Json {
    get(addr, "/stats")
        .and_then(|raw| parse_response(&raw))
        .ok()
        .and_then(|r| ccdp_json::parse(&r.body).ok())
        .unwrap_or(Json::Null)
}

/// A parsed response.
#[derive(Debug, PartialEq)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// Bytes received beyond the declared response — a duplicated or
    /// corrupted reply.
    pub excess: usize,
}

/// Parse raw response bytes (see the module docs for what is rejected).
pub fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no header terminator in response")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "non-utf8 head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let content_length: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .ok_or("response has no Content-Length")?;
    let body_start = head_end + 4;
    if raw.len() < body_start + content_length {
        return Err(format!(
            "truncated body: got {} of {content_length} bytes",
            raw.len() - body_start
        ));
    }
    let excess = raw.len() - body_start - content_length;
    let body = std::str::from_utf8(&raw[body_start..body_start + content_length])
        .map_err(|_| "non-utf8 body")?
        .to_string();
    Ok(Response { status, body, excess })
}

/// A spawned `ccdpd`, killed when dropped.
pub struct Daemon {
    child: Child,
    /// The bound address from the `ccdpd listening on <addr>` banner.
    pub addr: String,
    /// slot → pid, kept current by a stdout-reader thread as the supervisor
    /// respawns crashed workers.
    workers: Arc<Mutex<HashMap<usize, u32>>>,
}

fn parse_worker_line(line: &str) -> Option<(usize, u32)> {
    let mut it = line.strip_prefix("ccdpd worker ")?.split_whitespace();
    let slot = it.next()?.parse().ok()?;
    if it.next() != Some("pid") {
        return None;
    }
    Some((slot, it.next()?.parse().ok()?))
}

impl Daemon {
    /// Spawn `ccdpd` with `args` and block until its listening banner.
    /// Stdout carries one `ccdpd worker <slot> pid <pid>` line per worker
    /// (re)spawn, before and after the banner; a reader thread keeps
    /// draining it so respawns stay visible in [`Daemon::worker_pids`].
    pub fn spawn(ccdpd: &Path, args: &[&str], stderr: Stdio) -> Result<Daemon, String> {
        let mut child = Command::new(ccdpd)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ccdpd.display()))?;
        let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
        let workers = Arc::new(Mutex::new(HashMap::new()));
        let addr = loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("ccdpd exited before its listening banner".to_string());
            }
            if let Some((slot, pid)) = parse_worker_line(line.trim()) {
                workers.lock().unwrap().insert(slot, pid);
            } else if let Some(rest) = line.trim().strip_prefix("ccdpd listening on ") {
                break rest.to_string();
            }
        };
        let thread_workers = Arc::clone(&workers);
        std::thread::spawn(move || {
            for line in reader.lines() {
                let Ok(line) = line else { break };
                if let Some((slot, pid)) = parse_worker_line(line.trim()) {
                    thread_workers.lock().unwrap().insert(slot, pid);
                }
            }
        });
        Ok(Daemon { child, addr, workers })
    }

    /// The supervisor's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The live worker pids, by slot.
    pub fn worker_pids(&self) -> Vec<(usize, u32)> {
        self.workers.lock().unwrap().iter().map(|(&s, &p)| (s, p)).collect()
    }

    /// Send `sig` (e.g. `-TERM`, `-KILL`) to the supervisor; whether
    /// `kill` succeeded.
    pub fn signal(&self, sig: &str) -> bool {
        Command::new("kill")
            .args([sig, &self.child.id().to_string()])
            .status()
            .is_ok_and(|s| s.success())
    }

    /// Wait up to `within` for the supervisor to exit; its exit code, or
    /// `None` if it had to be killed or died by a signal.
    pub fn wait_exit(&mut self, within: Duration) -> Option<i32> {
        let deadline = Instant::now() + within;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.code(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(25))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return None;
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::http::response_bytes;

    #[test]
    fn parses_what_the_server_writes() {
        let raw = response_bytes(422, "Unprocessable Entity", r#"{"status":"error"}"#);
        let r = parse_response(&raw).unwrap();
        assert_eq!(
            r,
            Response { status: 422, body: r#"{"status":"error"}"#.to_string(), excess: 0 }
        );
        let empty = parse_response(&response_bytes(200, "OK", "")).unwrap();
        assert_eq!((empty.status, empty.body.as_str(), empty.excess), (200, "", 0));
    }

    #[test]
    fn bytes_past_the_body_are_reported_as_excess() {
        let one = response_bytes(200, "OK", "{}");
        let mut twice = one.clone();
        twice.extend_from_slice(&one);
        let r = parse_response(&twice).unwrap();
        assert_eq!(r.body, "{}");
        assert_eq!(r.excess, one.len());
    }

    #[test]
    fn malformed_responses_are_rejected() {
        let raw = response_bytes(200, "OK", r#"{"status":"ok"}"#);
        let truncated = parse_response(&raw[..raw.len() - 3]).unwrap_err();
        assert!(truncated.starts_with("truncated body: got 12 of 15 bytes"), "{truncated}");
        let no_length = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{}";
        assert_eq!(parse_response(no_length).unwrap_err(), "response has no Content-Length");
        for bad in [&b"HTTP/1.1 OK\r\nContent-Length: 0\r\n\r\n"[..], b"hello 200\r\n\r\n"] {
            assert!(parse_response(bad).unwrap_err().starts_with("bad status line"));
        }
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n").is_err(), "no header terminator");
    }

    #[test]
    fn worker_lines_are_parsed_strictly() {
        assert_eq!(parse_worker_line("ccdpd worker 3 pid 4242"), Some((3, 4242)));
        assert_eq!(parse_worker_line("ccdpd worker 3 tid 4242"), None);
        assert_eq!(parse_worker_line("ccdpd listening on 127.0.0.1:1"), None);
    }
}
