//! The wire protocol: line-delimited JSON over TCP.
//!
//! Each direction is a stream of `\n`-terminated lines. Clients send
//! requests; the server answers with event lines, interleaving progress
//! for every job the connection owns. Two requests also have a bare-word
//! form (`CANCEL <job-id>`, `SHUTDOWN`) so a human with `nc` can drive a
//! server; the JSON forms are what `sad submit` speaks.
//!
//! ## Requests
//!
//! ```text
//! {"cmd":"submit","id":"fam_a","priority":0,"fasta":">a\nMKVL\n..."}
//! {"cmd":"cancel","job":"fam_a"}        CANCEL fam_a
//! {"cmd":"shutdown"}                    SHUTDOWN
//! ```
//!
//! A proposed `id` names the output file, so it is restricted to ASCII
//! `[A-Za-z0-9._-]` with no leading `.` and at most
//! [`crate::server::MAX_JOB_ID_LEN`] bytes; anything else is `rejected`.
//! Request lines are bounded by [`MAX_LINE_BYTES`] and JSON nesting by
//! [`crate::json::MAX_DEPTH`] — the daemon listens on a plain TCP socket,
//! so every frame is treated as hostile until parsed.
//!
//! ## Events
//!
//! ```text
//! {"event":"hello","server":"sad-serve","proto":1}
//! {"event":"accepted","requested":"fam_a","job":"fam_a"}
//! {"event":"rejected","requested":"fam_a","reason":"..."}
//! {"event":"started","job":"fam_a"}
//! {"event":"phase","job":"fam_a","phase":"8-local-align","seconds":0.01}
//! {"event":"result","job":"fam_a","cached":false,"digest":"…","rows":4,"seconds":0.02,"fasta":"…"}
//! {"event":"cancelled","job":"fam_a","detail":"..."}
//! {"event":"error","job":"fam_a","message":"..."}
//! {"event":"cancel-requested","job":"fam_a"}
//! {"event":"bye"}
//! ```

use crate::json::Json;
use std::io::Read;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a FASTA payload as a new job.
    Submit {
        /// Client-proposed job id (the server unique-ifies collisions).
        id: Option<String>,
        /// Scheduling priority; higher runs first. Defaults to 0.
        priority: i64,
        /// The raw FASTA text.
        fasta: String,
    },
    /// Cancel a job by server-assigned id.
    Cancel {
        /// The job id.
        job: String,
    },
    /// Ask the server to drain and exit.
    Shutdown,
}

/// Parse one request line (JSON or bare-word form).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    if line.eq_ignore_ascii_case("shutdown") {
        return Ok(Request::Shutdown);
    }
    if let Some(rest) = line
        .strip_prefix("CANCEL ")
        .or_else(|| line.strip_prefix("cancel "))
        .filter(|_| !line.starts_with('{'))
    {
        let job = rest.trim();
        if job.is_empty() {
            return Err("CANCEL needs a job id".into());
        }
        return Ok(Request::Cancel { job: job.to_string() });
    }
    let value = Json::parse(line).map_err(|e| format!("bad request line: {e}"))?;
    match value.get("cmd").and_then(Json::as_str) {
        Some("submit") => {
            let fasta = value
                .get("fasta")
                .and_then(Json::as_str)
                .ok_or_else(|| "submit needs a \"fasta\" payload".to_string())?;
            Ok(Request::Submit {
                id: value.get("id").and_then(Json::as_str).map(str::to_string),
                priority: value.get("priority").and_then(Json::as_i64).unwrap_or(0),
                fasta: fasta.to_string(),
            })
        }
        Some("cancel") => {
            let job = value
                .get("job")
                .and_then(Json::as_str)
                .ok_or_else(|| "cancel needs a \"job\" id".to_string())?;
            Ok(Request::Cancel { job: job.to_string() })
        }
        Some("shutdown") => Ok(Request::Shutdown),
        Some(other) => Err(format!("unknown cmd {other:?}")),
        None => Err("missing \"cmd\"".into()),
    }
}

/// Server event line constructors. Each returns one line without the
/// trailing newline; the sink appends it.
pub mod event {
    use super::Json;

    /// Protocol version spoken by this build.
    pub const PROTO_VERSION: u64 = 1;

    /// Greeting sent on connect.
    pub fn hello() -> String {
        Json::obj([
            ("event", Json::str("hello")),
            ("server", Json::str("sad-serve")),
            ("proto", Json::Num(PROTO_VERSION as f64)),
        ])
        .encode()
    }

    /// Submission admitted; `job` is the server-assigned id (may differ
    /// from `requested` on collision).
    pub fn accepted(requested: &str, job: &str) -> String {
        Json::obj([
            ("event", Json::str("accepted")),
            ("requested", Json::str(requested)),
            ("job", Json::str(job)),
        ])
        .encode()
    }

    /// Submission refused.
    pub fn rejected(requested: &str, reason: &str) -> String {
        Json::obj([
            ("event", Json::str("rejected")),
            ("requested", Json::str(requested)),
            ("reason", Json::str(reason)),
        ])
        .encode()
    }

    /// A worker began the job.
    pub fn started(job: &str) -> String {
        Json::obj([("event", Json::str("started")), ("job", Json::str(job))]).encode()
    }

    /// A pipeline phase finished for the job.
    pub fn phase(job: &str, phase: &str, seconds: f64) -> String {
        Json::obj([
            ("event", Json::str("phase")),
            ("job", Json::str(job)),
            ("phase", Json::str(phase)),
            ("seconds", Json::Num(seconds)),
        ])
        .encode()
    }

    /// The job's aligned FASTA.
    pub fn result(
        job: &str,
        cached: bool,
        digest: &str,
        rows: usize,
        seconds: f64,
        fasta: &str,
    ) -> String {
        Json::obj([
            ("event", Json::str("result")),
            ("job", Json::str(job)),
            ("cached", Json::Bool(cached)),
            ("digest", Json::str(digest)),
            ("rows", Json::Num(rows as f64)),
            ("seconds", Json::Num(seconds)),
            ("fasta", Json::str(fasta)),
        ])
        .encode()
    }

    /// The job was cancelled (before or during execution).
    pub fn cancelled(job: &str, detail: &str) -> String {
        Json::obj([
            ("event", Json::str("cancelled")),
            ("job", Json::str(job)),
            ("detail", Json::str(detail)),
        ])
        .encode()
    }

    /// Something went wrong; `job` is absent for connection-level errors.
    pub fn error(job: Option<&str>, message: &str) -> String {
        Json::obj([
            ("event", Json::str("error")),
            ("job", job.map_or(Json::Null, Json::str)),
            ("message", Json::str(message)),
        ])
        .encode()
    }

    /// Acknowledgement that a cancel was delivered to a running job.
    pub fn cancel_requested(job: &str) -> String {
        Json::obj([("event", Json::str("cancel-requested")), ("job", Json::str(job))]).encode()
    }

    /// Connection closing (shutdown acknowledged).
    pub fn bye() -> String {
        Json::obj([("event", Json::str("bye"))]).encode()
    }
}

/// What [`LineReader::next_line`] observed.
#[derive(Debug, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete line, or the unterminated last one at EOF, without its
    /// `\n` or one trailing `\r`.
    Line(String),
    /// The read timed out with no complete line; caller should check its
    /// stop flags and try again.
    TimedOut,
    /// The peer closed the connection.
    Eof,
}

impl LineEvent {
    /// One line's bytes (its `'\n'` already removed) as a [`LineEvent::Line`]:
    /// one trailing `'\r'` stripped, then decoded as lossy UTF-8.
    fn line(bytes: &[u8]) -> LineEvent {
        let bytes = bytes.strip_suffix(b"\r").unwrap_or(bytes);
        LineEvent::Line(String::from_utf8_lossy(bytes).into_owned())
    }
}

/// The longest single line [`LineReader`] accepts. A peer that streams
/// bytes without ever sending `'\n'` would otherwise grow the buffer
/// without bound; past this the reader errors and the caller drops the
/// connection. Generous enough for any realistic FASTA submission.
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Incremental line framing over any [`Read`].
///
/// `BufReader::read_line` blocks until a full line or EOF; under a read
/// timeout it can also error with half a line already consumed. This
/// reader instead accumulates raw chunks and only surfaces complete
/// lines, turning timeouts into [`LineEvent::TimedOut`] ticks so the
/// caller can poll shutdown flags between reads without losing data.
/// Lines longer than [`MAX_LINE_BYTES`] are an [`std::io::Error`]
/// (`InvalidData`).
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Prefix of `buf` already known to hold no `'\n'` (so each arriving
    /// chunk is scanned once, not the whole buffer again).
    scanned: usize,
}

impl<R: Read> LineReader<R> {
    /// Wrap a readable stream.
    pub fn new(inner: R) -> LineReader<R> {
        LineReader { inner, buf: Vec::new(), scanned: 0 }
    }

    /// Pull the next line, timeout tick, or EOF.
    pub fn next_line(&mut self) -> std::io::Result<LineEvent> {
        loop {
            if let Some(at) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
                let at = self.scanned + at;
                let rest = self.buf.split_off(at + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                self.scanned = 0;
                line.pop(); // the '\n'
                return Ok(LineEvent::line(&line));
            }
            self.scanned = self.buf.len();
            if self.buf.len() > MAX_LINE_BYTES {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("line exceeds {MAX_LINE_BYTES} bytes without a newline"),
                ));
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return Ok(LineEvent::Eof);
                    }
                    // A final unterminated line: surface it, then EOF.
                    let line = LineEvent::line(&self.buf);
                    self.buf.clear();
                    self.scanned = 0;
                    return Ok(line);
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(LineEvent::TimedOut);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_request_forms() {
        let json = "{\"cmd\":\"submit\",\"id\":\"fam\",\"priority\":3,\"fasta\":\">a\\nMK\\n\"}";
        assert_eq!(
            parse_request(json).unwrap(),
            Request::Submit { id: Some("fam".into()), priority: 3, fasta: ">a\nMK\n".into() }
        );
        // id and priority are optional.
        let bare = parse_request("{\"cmd\":\"submit\",\"fasta\":\">a\\nMK\\n\"}").unwrap();
        assert_eq!(bare, Request::Submit { id: None, priority: 0, fasta: ">a\nMK\n".into() });
        assert_eq!(parse_request("CANCEL fam_a").unwrap(), Request::Cancel { job: "fam_a".into() });
        assert_eq!(
            parse_request("{\"cmd\":\"cancel\",\"job\":\"fam_a\"}").unwrap(),
            Request::Cancel { job: "fam_a".into() }
        );
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
        assert_eq!(parse_request("shutdown").unwrap(), Request::Shutdown);
        assert_eq!(parse_request("{\"cmd\":\"shutdown\"}").unwrap(), Request::Shutdown);
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "",
            "CANCEL ",
            "{\"cmd\":\"submit\"}",
            "{\"cmd\":\"cancel\"}",
            "{\"cmd\":\"explode\"}",
            "{\"fasta\":\"x\"}",
            "not even close",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn event_lines_are_single_line_json() {
        let lines = [
            event::hello(),
            event::accepted("fam", "fam-2"),
            event::rejected("fam", "queue full"),
            event::started("fam"),
            event::phase("fam", "8-local-align", 0.25),
            event::result("fam", true, "00ff", 4, 0.5, ">a\nMK-L\n"),
            event::cancelled("fam", "cancelled before start"),
            event::error(Some("fam"), "boom"),
            event::error(None, "bad line"),
            event::cancel_requested("fam"),
            event::bye(),
        ];
        for line in lines {
            assert!(!line.contains('\n'), "{line}");
            Json::parse(&line).expect(&line);
        }
    }

    #[test]
    fn line_reader_frames_chunks() {
        use std::collections::VecDeque;
        // A Read that returns scripted chunks, then WouldBlock, then EOF.
        struct Script(VecDeque<Result<Vec<u8>, std::io::ErrorKind>>);
        impl Read for Script {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                match self.0.pop_front() {
                    Some(Ok(bytes)) => {
                        out[..bytes.len()].copy_from_slice(&bytes);
                        Ok(bytes.len())
                    }
                    Some(Err(kind)) => Err(kind.into()),
                    None => Ok(0),
                }
            }
        }
        let script = Script(VecDeque::from(vec![
            Ok(b"{\"a\":1}\n{\"b\"".to_vec()),
            Err(std::io::ErrorKind::WouldBlock),
            Ok(b":2}\r\ntail".to_vec()),
        ]));
        let mut reader = LineReader::new(script);
        assert_eq!(reader.next_line().unwrap(), LineEvent::Line("{\"a\":1}".into()));
        assert_eq!(reader.next_line().unwrap(), LineEvent::TimedOut);
        assert_eq!(reader.next_line().unwrap(), LineEvent::Line("{\"b\":2}".into()));
        assert_eq!(reader.next_line().unwrap(), LineEvent::Line("tail".into()));
        assert_eq!(reader.next_line().unwrap(), LineEvent::Eof);
    }

    #[test]
    fn line_reader_caps_unterminated_lines() {
        // A peer that streams bytes and never sends '\n' must get an
        // error (the caller drops the connection), not unbounded memory.
        let endless = std::io::Read::take(std::io::repeat(b'x'), MAX_LINE_BYTES as u64 + 8192);
        let err = LineReader::new(endless).next_line().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // At exactly the cap with a newline, the line still goes through.
        let mut data = vec![b'y'; MAX_LINE_BYTES];
        data.push(b'\n');
        let mut reader = LineReader::new(std::io::Cursor::new(data));
        match reader.next_line().unwrap() {
            LineEvent::Line(line) => assert_eq!(line.len(), MAX_LINE_BYTES),
            other => panic!("expected a line, got {other:?}"),
        }
        assert_eq!(reader.next_line().unwrap(), LineEvent::Eof);
    }
}
