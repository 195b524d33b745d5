//! Child processes under a deadline: the workload worker and the
//! replay. A child that misses its deadline is killed and waited
//! for, and the run counts it as failed.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The line a worker prints right before its first experiment call.
pub const READY: &str = "ready";

/// What a finished child printed.
#[derive(Debug)]
pub struct Finished {
    /// Seconds from just before spawn to the [`READY`] line, if printed.
    pub ready_s: Option<f64>,
    /// Every stdout line, [`READY`] included.
    pub lines: Vec<String>,
}

impl Finished {
    /// Value of `key=` on the last `result` line.
    pub fn field(&self, key: &str) -> Option<&str> {
        let line = self.lines.iter().rev().find(|l| l.starts_with("result "))?;
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
    }

    /// [`Finished::field`] parsed as a number.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.field(key)?.parse().ok()
    }
}

/// Kills and reaps a child; errors mean it had already gone.
pub fn kill(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// Runs this executable with `args`, reading its stdout line by line,
/// until it exits or `deadline` passes.
///
/// # Errors
///
/// Describes a spawn failure, a timeout (the child is killed) or a
/// non-zero exit.
pub fn run_self(args: &[String], deadline: Instant) -> Result<Finished, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", args.join(" ")))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send((Instant::now(), line)).is_err() {
                break;
            }
        }
    });
    let mut out = Finished {
        ready_s: None,
        lines: Vec::new(),
    };
    let timed_out = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok((at, line)) => {
                if line == READY && out.ready_s.is_none() {
                    out.ready_s = Some(at.duration_since(start).as_secs_f64());
                }
                out.lines.push(line);
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break false,
            Err(mpsc::RecvTimeoutError::Timeout) => break true,
        }
    };
    let status = if timed_out {
        None
    } else {
        wait_until(&mut child, deadline)
    };
    let Some(status) = status else {
        kill(&mut child);
        let _ = reader.join();
        return Err(format!("{} missed its deadline", args.join(" ")));
    };
    let _ = reader.join();
    if !status.success() {
        return Err(format!("{} exited with {status}", args.join(" ")));
    }
    Ok(out)
}

/// Waits for `child` to exit until `deadline`; `None` if it is still
/// running then.
pub fn wait_until(child: &mut Child, deadline: Instant) -> Option<std::process::ExitStatus> {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            _ => return None,
        }
    }
}

/// Removes a scratch directory tree, ignoring a missing one.
pub fn remove_dir(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        if e.kind() != std::io::ErrorKind::NotFound {
            eprintln!("perfbench: cannot remove {}: {e}", dir.display());
        }
    }
}
