//! Starting, probing and stopping `coded` and `codar-proxy` processes.
//!
//! Every process listens on a free loopback port the OS picks
//! (`--listen 127.0.0.1:0`); its address is read back from the
//! "listening on" line it prints. A [`Daemon`] kills its process when
//! dropped, so every early return and panic leaves nothing running.

use codar_service::json::Json;
use codar_service::loadgen::{TcpTransport, Transport};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const READY_TIMEOUT: Duration = Duration::from_secs(30);
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);
const ACCEPT_SETTLE: Duration = Duration::from_millis(1);
/// How long a stopping daemon waits for open connections to close.
const DRAIN_MS: &str = "1000";

/// Where the built `coded` and `codar-proxy` executables are.
#[derive(Debug, Clone)]
pub struct Bins {
    pub coded: PathBuf,
    pub proxy: PathBuf,
}

impl Bins {
    pub fn in_dir(dir: &Path) -> Bins {
        Bins {
            coded: dir.join("coded"),
            proxy: dir.join("codar-proxy"),
        }
    }
}

/// The peak resident set size (`VmHWM`) in a `/proc/<pid>/status`
/// file, in KiB.
pub fn vm_hwm_kb(status_path: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string(status_path)
        .map_err(|e| format!("cannot read {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {status_path}"))
}

/// One running daemon process.
pub struct Daemon {
    name: String,
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `bin` on a free loopback port and waits until it answers
    /// a `health` probe with `"ready":true`.
    pub fn start(bin: &Path, args: &[&str]) -> Result<Daemon, String> {
        let name = bin
            .file_name()
            .map_or("daemon".to_string(), |n| n.to_string_lossy().into_owned());
        let mut child = Command::new(bin)
            .args(args)
            .args(["--listen", "127.0.0.1:0", "--drain-ms", DRAIN_MS])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let prefix = name.clone();
        // Forwards the daemon's stderr and reports its bound address;
        // ends when the process closes stderr, i.e. when it exits.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.split("listening on ").nth(1) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.split_whitespace().next().unwrap_or("").to_string());
                    }
                }
                eprintln!("[{prefix}] {line}");
            }
        });
        let mut daemon = Daemon {
            name,
            child,
            addr: String::new(),
            stderr: Some(reader),
        };
        daemon.addr = rx
            .recv_timeout(READY_TIMEOUT)
            .map_err(|_| format!("{} never reported its listening address", daemon.name))?;
        // The daemons' accept loops poll every 5 ms. Probing a moment
        // after the announcement meets the loop asleep every time,
        // instead of racing its first poll (which made set-up time
        // jump between two values from run to run).
        std::thread::sleep(ACCEPT_SETTLE);
        daemon.wait_ready()?;
        Ok(daemon)
    }

    fn wait_ready(&mut self) -> Result<(), String> {
        let started = Instant::now();
        loop {
            let ready = self
                .request("{\"type\":\"health\"}")
                .ok()
                .and_then(|reply| Json::parse(&reply).ok())
                .and_then(|health| health.get("ready").and_then(Json::as_bool));
            if ready == Some(true) {
                return Ok(());
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("{} exited during start-up: {status}", self.name));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(format!("{} not ready after {READY_TIMEOUT:?}", self.name));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends one line on a fresh connection and returns the reply.
    pub fn request(&self, line: &str) -> Result<String, String> {
        let mut conn = TcpTransport::connect(&self.addr)
            .map_err(|e| format!("cannot connect to {} at {}: {e}", self.name, self.addr))?;
        conn.call(line)
            .map_err(|e| format!("{} did not answer `{line}`: {e}", self.name))
    }

    /// Peak resident set size (VmHWM) of the process, in KiB.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        vm_hwm_kb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends the `shutdown` verb (the reply is the acknowledgement).
    pub fn send_shutdown(&self) -> Result<(), String> {
        let reply = self.request("{\"type\":\"shutdown\"}")?;
        if reply.contains("\"status\":\"ok\"") {
            Ok(())
        } else {
            Err(format!("{} refused shutdown: {reply}", self.name))
        }
    }

    /// Waits until the process has exited; false on timeout.
    fn wait_exit(&mut self, timeout: Duration) -> bool {
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return true,
                Ok(None) if started.elapsed() < timeout => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => return false,
            }
        }
    }

    /// Stops the daemon with the `shutdown` verb and waits for it to
    /// exit. On any failure the process is killed (by `Drop`).
    pub fn stop(mut self) -> Result<(), String> {
        if self.wait_exit(Duration::ZERO) {
            return Err(format!("{} had already exited", self.name));
        }
        self.send_shutdown()?;
        self.await_exit()
    }

    /// Waits for an exit that a shutdown already requested; an error
    /// (the process is then killed by `Drop`) when it does not come.
    pub fn await_exit(mut self) -> Result<(), String> {
        if self.wait_exit(EXIT_TIMEOUT) {
            Ok(())
        } else {
            Err(format!(
                "{} did not exit within {EXIT_TIMEOUT:?} of shutdown",
                self.name
            ))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// The processes of one service workload: a bare `coded`, or
/// `codar-proxy` in front of `coded` shards.
pub struct Tier {
    /// The process clients talk to.
    front: Daemon,
    /// The proxy's backends (empty for a bare daemon).
    shards: Vec<Daemon>,
}

impl Tier {
    /// Starts the tier and waits until every process is ready; returns
    /// it with the time from the first spawn to the front's first
    /// ready `health` reply.
    pub fn start(bins: &Bins, shards: usize) -> Result<(Tier, Duration), String> {
        let started = Instant::now();
        if shards == 0 {
            let front = Daemon::start(&bins.coded, &[])?;
            return Ok((
                Tier {
                    front,
                    shards: Vec::new(),
                },
                started.elapsed(),
            ));
        }
        let shards = (0..shards)
            .map(|_| Daemon::start(&bins.coded, &[]))
            .collect::<Result<Vec<_>, _>>()?;
        let mut args = Vec::new();
        for shard in &shards {
            args.extend(["--backend", shard.addr()]);
        }
        let front = Daemon::start(&bins.proxy, &args)?;
        Ok((Tier { front, shards }, started.elapsed()))
    }

    pub fn addr(&self) -> &str {
        self.front.addr()
    }

    /// The daemons that hold route caches.
    fn caches(&self) -> Vec<&Daemon> {
        if self.shards.is_empty() {
            vec![&self.front]
        } else {
            self.shards.iter().collect()
        }
    }

    /// Summed `(hits, misses)` of every daemon's cache. The proxy's own
    /// `stats` carries no cache counters, so shards are asked directly.
    pub fn cache_counters(&self) -> Result<(u64, u64), String> {
        let mut totals = (0, 0);
        for daemon in self.caches() {
            let reply = daemon.request("{\"type\":\"stats\"}")?;
            let stats = Json::parse(&reply).map_err(|e| format!("bad stats reply: {e}"))?;
            let cache = stats
                .get("cache")
                .ok_or("stats reply without cache counters")?;
            let count = |key: &str| {
                cache
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or(format!("stats reply without cache.{key}"))
            };
            totals.0 += count("hits")?;
            totals.1 += count("misses")?;
        }
        Ok(totals)
    }

    /// Summed `(count, µs)` of the daemons' own `route` latency
    /// histograms: `handle_line` time measured inside the daemons
    /// (each sample truncated to whole µs).
    pub fn route_time(&self) -> Result<(u64, u64), String> {
        let mut totals = (0, 0);
        for daemon in self.caches() {
            let reply = daemon.request("{\"type\":\"metrics\",\"hist\":true}")?;
            let metrics = Json::parse(&reply).map_err(|e| format!("bad metrics reply: {e}"))?;
            let field = |key: &str| {
                metrics
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or(format!("metrics reply without {key}"))
            };
            totals.0 += field("hist_route_total")?;
            totals.1 += field("hist_route_sum_us")?;
        }
        Ok(totals)
    }

    /// The proxy's retry counter (0 for a bare daemon).
    pub fn proxy_retries(&self) -> Result<u64, String> {
        if self.shards.is_empty() {
            return Ok(0);
        }
        let reply = self.front.request("{\"type\":\"stats\"}")?;
        Json::parse(&reply)
            .ok()
            .and_then(|stats| stats.get("retries").and_then(Json::as_u64))
            .ok_or(format!("proxy stats without retries: {reply}"))
    }

    /// Summed peak RSS of every process of the tier, in KiB.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        let mut total = self.front.peak_rss_kb()?;
        for shard in &self.shards {
            total += shard.peak_rss_kb()?;
        }
        Ok(total)
    }

    /// Shuts the tier down through its front (the proxy forwards the
    /// verb to its shards) and waits for every process to exit. A shard
    /// the broadcast missed is told directly; anything still running
    /// after that is killed and reported.
    pub fn stop(self) -> Result<(), String> {
        let Tier { front, shards } = self;
        front.stop()?;
        let mut result = Ok(());
        for shard in shards {
            let mut shard = shard;
            if !shard.wait_exit(EXIT_TIMEOUT) {
                let outcome = shard.send_shutdown().and_then(|()| shard.await_exit());
                if result.is_ok() {
                    result = outcome;
                }
            }
        }
        result
    }
}
