//! Spawning `sad` and reading each child's own peak memory.
//!
//! Neither `getrusage(RUSAGE_CHILDREN)` nor the rusage `wait4` returns is
//! a child's own peak: the first is a running maximum over every child
//! ever reaped, and on Linux both start a child's `ru_maxrss` from the
//! *parent's* resident size at spawn (exec folds the old address space's
//! high-water mark into the new process's), so a harness holding 70 MB of
//! inputs reports 70 MB for a 20 MB child. `VmHWM` in
//! `/proc/<pid>/status` belongs to the child's own address space; it is
//! polled while the child runs, and being a high-water mark it misses
//! only growth after the last poll.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Gap between two reads of a running child's `VmHWM`.
const POLL: Duration = Duration::from_millis(2);

/// How one child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code; `None` when a signal ended the child.
    pub code: Option<i32>,
    pub peak_rss_kb: u64,
}

impl Exit {
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_kb as f64 / 1024.0
    }
}

/// `VmHWM` (KiB) of process `pid`, or `None` once it has exited.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// A spawned child that is killed and reaped on drop unless
/// [`Proc::wait`] already reaped it, so no error path leaves one behind.
pub struct Proc {
    child: Child,
    reaped: bool,
    peak_rss_kb: u64,
}

impl Proc {
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Proc> {
        Ok(Proc { child: cmd.spawn()?, reaped: false, peak_rss_kb: 0 })
    }

    pub fn child(&mut self) -> &mut Child {
        &mut self.child
    }

    /// Read the child's `VmHWM` now (a long-lived child is not polled
    /// until [`Proc::wait`]).
    pub fn sample_peak_rss(&mut self) {
        if let Some(kb) = vm_hwm_kb(self.child.id()) {
            self.peak_rss_kb = self.peak_rss_kb.max(kb);
        }
    }

    /// Block until the child ends, polling its `VmHWM` meanwhile.
    pub fn wait(mut self) -> std::io::Result<Exit> {
        let pid = self.child.id();
        let done = AtomicBool::new(false);
        let (status, polled) = std::thread::scope(|scope| {
            let poller = scope.spawn(|| {
                let mut peak = 0;
                // Relaxed: the flag publishes nothing but itself.
                while !done.load(Ordering::Relaxed) {
                    peak = peak.max(vm_hwm_kb(pid).unwrap_or(0));
                    std::thread::sleep(POLL);
                }
                peak
            });
            let status = self.child.wait();
            done.store(true, Ordering::Relaxed);
            (status, poller.join().expect("the VmHWM poller panicked"))
        });
        self.reaped = true;
        Ok(Exit { code: status?.code(), peak_rss_kb: self.peak_rss_kb.max(polled) })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One finished `sad` invocation.
pub struct Invocation {
    pub wall_s: f64,
    pub exit: Exit,
}

/// Run `sad` with `args`, its stdout redirected to `stdout_file` (as a
/// shell user would with `>`), and time it from spawn to exit.
pub fn run_sad(sad: &Path, args: &[String], stdout_file: &Path) -> std::io::Result<Invocation> {
    let out = std::fs::File::create(stdout_file)?;
    let started = Instant::now();
    let proc = Proc::spawn(
        Command::new(sad).args(args).stdin(Stdio::null()).stdout(out).stderr(Stdio::inherit()),
    )?;
    let exit = proc.wait()?;
    Ok(Invocation { wall_s: started.elapsed().as_secs_f64(), exit })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait_reports_the_exit_code() {
        let ok = Proc::spawn(Command::new("true").stdout(Stdio::null())).unwrap().wait().unwrap();
        assert_eq!(ok.code, Some(0));
        let bad = Proc::spawn(&mut Command::new("false")).unwrap().wait().unwrap();
        assert_eq!(bad.code, Some(1));
    }

    #[test]
    fn peak_rss_is_the_childs_own_not_the_parents() {
        // Make this process far larger than `sleep` will ever be.
        let ballast = vec![1u8; 64 << 20];
        let mut proc = Proc::spawn(Command::new("sleep").arg("0.2")).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        proc.sample_peak_rss();
        let exit = proc.wait().unwrap();
        assert!(exit.peak_rss_kb > 0, "no VmHWM was read");
        assert!(exit.peak_rss_kb < 32 << 10, "sleep cannot need {} KiB", exit.peak_rss_kb);
        assert_eq!(ballast[ballast.len() - 1], 1);
    }

    #[test]
    fn dropping_an_unreaped_child_kills_it() {
        let mut proc = Proc::spawn(Command::new("sleep").arg("30")).unwrap();
        let pid = proc.child().id();
        drop(proc);
        assert!(vm_hwm_kb(pid).is_none(), "child {pid} outlived its guard");
    }
}
