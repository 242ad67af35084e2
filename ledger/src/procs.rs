//! `skyup` child processes: spawn, wait for `health`, read peak RSS,
//! shut down. A dropped [`Server`] is killed and reaped, so an error
//! path never leaves a child behind.

use crate::wire::{verb_line, Conn};
use skyup_obs::json::Json;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a child may take to print its address or answer `health`.
const PATIENCE: Duration = Duration::from_secs(60);

pub struct Server {
    child: Child,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns `skyup <args>` and waits for its `listening on` line.
    pub fn spawn(skyup: &Path, args: &[String]) -> Result<Server, String> {
        let mut child = Command::new(skyup)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", skyup.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("skyup {} did not start: {line:?}", args.join(" ")));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Blocks until the server answers `health`.
    pub fn wait_healthy(&self) -> Result<(), String> {
        Conn::connect(&self.addr, PATIENCE)?
            .call(&verb_line("health"))
            .map(|_| ())
    }

    /// Peak resident set (VmHWM) of the child so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown` and reaps the child; kills it if it lingers.
    pub fn shutdown(mut self) -> Result<(), String> {
        let acked = Conn::connect(&self.addr, Duration::from_secs(5))
            .and_then(|mut c| c.call(&verb_line("shutdown")).map(|_| ()));
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return acked;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        acked.and(Err(format!("{} ignored shutdown", self.addr)))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MB; 0 when unreadable.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A running topology: one single server, or shards plus the
/// coordinator clients talk to.
pub struct Topology {
    /// The coordinator (sharded) or the single server.
    pub front: Server,
    pub shards: Vec<Server>,
}

/// Server flags shared by every serve workload.
pub struct ServeFlags<'a> {
    pub competitors: &'a Path,
    pub wal_root: &'a Path,
    pub checkpoint_every: Option<u64>,
    pub trace_buffer: u64,
}

impl ServeFlags<'_> {
    fn args(&self, wal_dir: &Path, shard: Option<(u32, u32)>) -> Vec<String> {
        let mut args: Vec<String> = [
            "serve",
            "--competitors",
            &self.competitors.display().to_string(),
            "--threads",
            "2",
            "--wal",
            &wal_dir.display().to_string(),
            "--fsync",
            "interval:64",
            "--trace-buffer",
            &self.trace_buffer.to_string(),
            "--slow-ms",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if let Some(n) = self.checkpoint_every {
            args.extend(["--checkpoint-every".into(), n.to_string()]);
        }
        if let Some((id, n)) = shard {
            args.extend([
                "--shard-id".into(),
                id.to_string(),
                "--shards".into(),
                n.to_string(),
            ]);
        }
        args
    }
}

impl Topology {
    /// Starts one server (`shards == 0`) or `shards` shard servers plus
    /// a coordinator, and returns once every process answers `health`.
    /// `tag` keeps the WAL directories of repeated set-ups apart.
    pub fn start(
        skyup: &Path,
        flags: &ServeFlags<'_>,
        shards: u32,
        tag: &str,
    ) -> Result<Topology, String> {
        if shards == 0 {
            let front = Server::spawn(skyup, &flags.args(&flags.wal_root.join(tag), None))?;
            front.wait_healthy()?;
            return Ok(Topology {
                front,
                shards: Vec::new(),
            });
        }
        let shard_servers = (0..shards)
            .map(|i| {
                let dir = flags.wal_root.join(format!("{tag}-shard{i}"));
                Server::spawn(skyup, &flags.args(&dir, Some((i, shards))))
            })
            .collect::<Result<Vec<_>, _>>()?;
        for s in &shard_servers {
            s.wait_healthy()?;
        }
        let mut args: Vec<String> = vec!["coordinate".into()];
        for s in &shard_servers {
            args.extend(["--shard".into(), s.addr.clone()]);
        }
        args.extend([
            "--competitors".into(),
            flags.competitors.display().to_string(),
        ]);
        let front = Server::spawn(skyup, &args)?;
        front.wait_healthy()?;
        Ok(Topology {
            front,
            shards: shard_servers,
        })
    }

    /// VmHWM summed over every server process.
    pub fn peak_rss_mb(&self) -> f64 {
        self.front.peak_rss_mb() + self.shards.iter().map(Server::peak_rss_mb).sum::<f64>()
    }

    /// Addresses whose `stats` describe the engines: the single server,
    /// or every shard.
    pub fn engine_addrs(&self) -> Vec<String> {
        if self.shards.is_empty() {
            vec![self.front.addr.clone()]
        } else {
            self.shards.iter().map(|s| s.addr.clone()).collect()
        }
    }

    /// Shuts the front end down first, then the shards.
    pub fn shutdown(self) -> Result<(), String> {
        let mut result = self.front.shutdown();
        for s in self.shards {
            result = result.and(s.shutdown());
        }
        result
    }
}

/// Reads `stats` from every engine and sums the fields the ledger uses.
pub fn engine_stats(addrs: &[String]) -> Result<EngineCounters, String> {
    let mut total = EngineCounters::default();
    for addr in addrs {
        let doc = Conn::connect(addr, PATIENCE)?.call(&verb_line("stats"))?;
        let field = |path: &[&str]| -> u64 {
            let mut v: Option<&Json> = Some(&doc);
            for key in path {
                v = v.and_then(|j| j.get(key));
            }
            v.and_then(Json::as_u64).unwrap_or(0)
        };
        total.rebuilds += field(&["rebuilds"]);
        total.cache_hit += field(&["counters", "cache_hit"]);
        total.cache_miss += field(&["counters", "cache_miss"]);
        total.cache_evictions += field(&["counters", "cache_evictions"]);
        total.requests_shed += field(&["counters", "requests_shed"]);
        total.wal_appends += field(&["counters", "wal_appends"]);
        total.wal_bytes += field(&["counters", "wal_bytes"]);
        total.wal_fsyncs += field(&["counters", "wal_fsyncs"]);
        total.checkpoints += field(&["counters", "checkpoints_written"]);
    }
    Ok(total)
}

/// Engine-side counters read through `stats` (summed over shards).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounters {
    pub rebuilds: u64,
    pub cache_hit: u64,
    pub cache_miss: u64,
    pub cache_evictions: u64,
    pub requests_shed: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub checkpoints: u64,
}

impl EngineCounters {
    /// `self - before`, field by field.
    pub fn since(&self, before: &EngineCounters) -> EngineCounters {
        EngineCounters {
            rebuilds: self.rebuilds - before.rebuilds,
            cache_hit: self.cache_hit - before.cache_hit,
            cache_miss: self.cache_miss - before.cache_miss,
            cache_evictions: self.cache_evictions - before.cache_evictions,
            requests_shed: self.requests_shed - before.requests_shed,
            wal_appends: self.wal_appends - before.wal_appends,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            wal_fsyncs: self.wal_fsyncs - before.wal_fsyncs,
            checkpoints: self.checkpoints - before.checkpoints,
        }
    }
}
