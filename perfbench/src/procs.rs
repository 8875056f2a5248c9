//! The service processes under test, and what the benchmark reads about them
//! from outside: a minimal HTTP client and the `/proc` CPU and memory counters.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `/proc/<pid>/stat` reports CPU time in USER_HZ ticks, fixed at 100 on Linux.
const TICKS_PER_S: f64 = 100.0;

/// How long a single HTTP exchange may take before it counts as failed.
const HTTP_TIMEOUT: Duration = Duration::from_secs(30);

/// A `Command` for the service binary that runs the program's defaults: every
/// `JULIQAOA_*` override and `RAYON_NUM_THREADS` is removed from the child's
/// environment.
pub fn service_command(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    for (key, _) in std::env::vars_os() {
        let name = key.to_string_lossy();
        if name.starts_with("JULIQAOA_") || name == "RAYON_NUM_THREADS" {
            cmd.env_remove(&key);
        }
    }
    cmd.stdin(Stdio::null());
    cmd
}

/// One running `serve` or `route` process.  Dropping it kills and reaps the
/// process, so no early return leaves a child behind.
pub struct Service {
    child: Child,
    pub addr: String,
}

impl Service {
    /// Starts `qaoa-service <args> --addr <addr>` and waits for the address it
    /// prints once listening.
    pub fn start(bin: &Path, args: &[String], addr: &str, log: PathBuf) -> Result<Service, String> {
        let stderr = std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = service_command(bin)
            .args(args)
            .args(["--addr", addr])
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut service = Service {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            if let Some(rest) = text.split("http://").nth(1) {
                let addr: String = rest.chars().take_while(|c| !c.is_whitespace()).collect();
                if !addr.is_empty() {
                    service.addr = addr;
                    return Ok(service);
                }
            }
            if let Ok(Some(status)) = service.child.try_wait() {
                return Err(format!("{args:?} exited early ({status}): {text}"));
            }
            if Instant::now() > deadline {
                return Err(format!("{args:?} did not start listening: {text}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the process to stop over HTTP and reaps it; kills it if it has
    /// not exited within the grace period.
    pub fn shutdown(mut self) {
        let _ = http(&self.addr, "POST", "/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One HTTP/1.1 exchange with `Connection: close`; returns status and body.
pub fn http(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), String> {
    let exchange = || -> std::io::Result<(u16, String)> {
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("address resolves to nothing"))?;
        let mut stream = TcpStream::connect_timeout(&sock, HTTP_TIMEOUT)?;
        stream.set_read_timeout(Some(HTTP_TIMEOUT))?;
        stream.set_write_timeout(Some(HTTP_TIMEOUT))?;
        let body = body.unwrap_or("");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )?;
        stream.flush()?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let status = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other("malformed status line"))?;
        let body = raw
            .split_once("\r\n\r\n")
            .map_or("", |(_, b)| b)
            .to_string();
        Ok((status, body))
    };
    exchange().map_err(|e| format!("{method} {addr}{path}: {e}"))
}

/// `http` that insists on a 2xx status.
pub fn http_ok(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<String, String> {
    match http(addr, method, path, body)? {
        (status, body) if (200..300).contains(&status) => Ok(body),
        (status, body) => Err(format!("{method} {addr}{path}: {status} {body}")),
    }
}

/// Fields of `/proc/<pid>/stat` after the command name.
fn stat_fields(pid: &str) -> Option<Vec<u64>> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after = &text[text.rfind(')')? + 2..];
    // Field 3 (state) is a letter; the numbers start at field 4.
    Some(
        after
            .split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect(),
    )
}

/// User plus system CPU seconds a process has used so far.
pub fn cpu_s(pid: u32) -> f64 {
    // utime and stime are fields 14 and 15.
    stat_fields(&pid.to_string()).map_or(0.0, |f| (f[10] + f[11]) as f64 / TICKS_PER_S)
}

/// User plus system CPU seconds of this process's reaped children (the
/// rusage of every child it has waited for).
pub fn children_cpu_s() -> f64 {
    // cutime and cstime are fields 16 and 17.
    stat_fields("self").map_or(0.0, |f| (f[12] + f[13]) as f64 / TICKS_PER_S)
}

/// Peak resident set of a live process, in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
