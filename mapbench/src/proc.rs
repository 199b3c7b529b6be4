//! Running the production binaries: wall time and peak resident set.
//!
//! Peak RSS is the kernel's `VmHWM` high-water mark from
//! `/proc/<pid>/status`, sampled by a watcher thread while the process
//! runs (the entry disappears once the process is reaped). Because the
//! figure is a high-water mark, the last sample before exit holds the peak
//! of everything before it.

use std::fs::File;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WATCH_EVERY: Duration = Duration::from_millis(5);

/// `VmHWM` of a live process, in KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Samples a child's `VmHWM` until stopped.
pub struct RssWatch {
    stop: Arc<AtomicBool>,
    peak_kib: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl RssWatch {
    pub fn start(pid: u32) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kib = Arc::new(AtomicU64::new(0));
        let (s, p) = (stop.clone(), peak_kib.clone());
        let handle = std::thread::spawn(move || {
            while !s.load(Ordering::Acquire) {
                if let Some(kib) = vm_hwm_kib(pid) {
                    p.fetch_max(kib, Ordering::AcqRel);
                }
                std::thread::sleep(WATCH_EVERY);
            }
        });
        RssWatch {
            stop,
            peak_kib,
            handle: Some(handle),
        }
    }

    /// Stop sampling; returns the peak in MiB.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.peak_kib.load(Ordering::Acquire) as f64 / 1024.0
    }
}

impl Drop for RssWatch {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

pub struct Finished {
    pub wall_s: f64,
    pub peak_rss_mb: f64,
    pub stderr: String,
}

/// Run `cmd` to completion with stdout written to `stdout_path`. A nonzero
/// exit is an error carrying the program's stderr.
pub fn run(cmd: &mut Command, stdout_path: &Path) -> Result<Finished, String> {
    let out = File::create(stdout_path).map_err(|e| format!("{}: {e}", stdout_path.display()))?;
    let err_path = stdout_path.with_extension("stderr");
    let err = File::create(&err_path).map_err(|e| format!("{}: {e}", err_path.display()))?;
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("spawning {cmd:?}: {e}"))?;
    let watch = RssWatch::start(child.id());
    let status = child
        .wait()
        .map_err(|e| format!("waiting for {cmd:?}: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = watch.finish();
    let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
    if !status.success() {
        return Err(format!("{cmd:?} exited with {status}: {stderr}"));
    }
    Ok(Finished {
        wall_s,
        peak_rss_mb,
        stderr,
    })
}

/// A child that is killed and reaped if dropped while still running, so an
/// early error never leaves a daemon behind.
pub struct Guard(pub Option<Child>);

impl Guard {
    pub fn id(&self) -> u32 {
        self.0.as_ref().map(|c| c.id()).unwrap_or(0)
    }

    /// Wait for a clean exit, up to `limit`; kill it past that.
    pub fn wait_for(mut self, limit: Duration) -> Result<ExitStatus, String> {
        let mut child = self.0.take().ok_or("no child")?;
        let deadline = Instant::now() + limit;
        loop {
            match child.try_wait() {
                Ok(Some(st)) => return Ok(st),
                Ok(None) if Instant::now() < deadline => std::thread::sleep(WATCH_EVERY),
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("process {} did not exit in {limit:?}", child.id()));
                }
                Err(e) => return Err(format!("waiting for process {}: {e}", child.id())),
            }
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}
