//! The client side of the wire: a timed one-shot HTTP/1.1 exchange (the server closes
//! every connection, so each request is connect → write → wait → read), and the
//! `pw-serve` child process the benchmark starts, probes and stops.

use pw_serve::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Socket timeout for one exchange: far above any healthy request, so a stalled
/// server surfaces as a transport failure instead of a hang.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// One request/response exchange and the instants that split it.
#[derive(Debug)]
pub struct Exchange {
    /// HTTP status of the reply.
    pub status: u16,
    /// The reply body.
    pub body: String,
    /// Bytes written (head + body).
    pub req_bytes: usize,
    /// Bytes read (head + body).
    pub resp_bytes: usize,
    /// Before `connect`.
    pub t_start: Instant,
    /// Connection established.
    pub t_connected: Instant,
    /// Request fully written.
    pub t_written: Instant,
    /// First response byte read.
    pub t_first_byte: Instant,
    /// Response read to EOF.
    pub t_end: Instant,
}

impl Exchange {
    /// Client-observed latency: connect through the last response byte.
    pub fn latency(&self) -> Duration {
        self.t_end - self.t_start
    }

    /// Is the status 2xx?
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Send one request and read the reply to EOF, timing each phase.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<Exchange> {
    let t_start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let t_connected = Instant::now();
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    let mut request = Vec::with_capacity(head.len() + body.len());
    request.extend_from_slice(head.as_bytes());
    request.extend_from_slice(body.as_bytes());
    stream.write_all(&request)?;
    // Half-close: the server's post-reply drain sees EOF at once instead of waiting.
    stream.shutdown(Shutdown::Write)?;
    let t_written = Instant::now();
    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let first = stream.read(&mut chunk)?;
    let t_first_byte = Instant::now();
    raw.extend_from_slice(&chunk[..first]);
    if first > 0 {
        stream.read_to_end(&mut raw)?;
    }
    let t_end = Instant::now();
    let (status, body) = parse_response(&raw)?;
    Ok(Exchange {
        status,
        body,
        req_bytes: request.len(),
        resp_bytes: raw.len(),
        t_start,
        t_connected,
        t_written,
        t_first_byte,
        t_end,
    })
}

fn parse_response(raw: &[u8]) -> std::io::Result<(u16, String)> {
    let invalid =
        |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let text = std::str::from_utf8(raw).map_err(|_| invalid("reply is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid("reply has no header terminator"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("reply has no status code"))?;
    Ok((status, body.to_string()))
}

/// POST a JSON body and parse the 2xx reply, or describe what went wrong.
pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> Result<Json, String> {
    let reply = exchange(addr, "POST", path, body).map_err(|e| format!("POST {path}: {e}"))?;
    if !reply.ok() {
        return Err(format!("POST {path}: {} {}", reply.status, reply.body));
    }
    Json::parse(&reply.body).map_err(|e| format!("POST {path}: reply is not JSON: {e}"))
}

/// GET a path and parse the 2xx reply.
pub fn get_json(addr: SocketAddr, path: &str) -> Result<Json, String> {
    let reply = exchange(addr, "GET", path, "").map_err(|e| format!("GET {path}: {e}"))?;
    if !reply.ok() {
        return Err(format!("GET {path}: {} {}", reply.status, reply.body));
    }
    Json::parse(&reply.body).map_err(|e| format!("GET {path}: reply is not JSON: {e}"))
}

/// A `pw-serve` child process.  Dropping it kills and reaps the process; a clean stop
/// goes through [`ServerProcess::shutdown`].
pub struct ServerProcess {
    child: Child,
    /// Kept open so the server's closing line never meets a broken pipe.
    stdout: BufReader<ChildStdout>,
    /// The address the server announced.
    pub addr: SocketAddr,
}

impl ServerProcess {
    /// Start `binary` on a free loopback port with `workers` worker threads (every
    /// other flag at its default) and wait until `/healthz` answers 200.
    pub fn start(binary: &Path, workers: usize) -> Result<ServerProcess, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = ServerProcess {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's banner: {e}"))?;
        server.addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match exchange(server.addr, "GET", "/healthz", "") {
                Ok(reply) if reply.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => {
                    return Err("server never answered /healthz".to_string())
                }
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// The server's peak resident set (`VmHWM`) in KiB, from `/proc`.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// Graceful stop: `POST /v1/shutdown`, then wait for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        post_json(self.addr, "/v1/shutdown", r#"{"schema_version":1}"#)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => return Err("server did not drain within 30 s".to_string()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
