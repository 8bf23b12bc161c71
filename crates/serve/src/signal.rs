//! Minimal SIGTERM/SIGINT observation for the CLI's serve loop.
//!
//! The workspace has no `libc` crate, but `std` already links the C
//! runtime, so declaring `signal(2)` ourselves costs nothing and keeps
//! the dependency surface at zero. The handler only flips an atomic —
//! the async-signal-safe minimum — and the serve loop polls the flag to
//! begin a drain-and-stop.

use std::sync::atomic::{AtomicBool, Ordering};

static REQUESTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use super::REQUESTED;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `signal` is installed with a handler that only touches
        // an atomic (async-signal-safe); the function pointer outlives
        // the process.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Install the SIGTERM/SIGINT handler (idempotent; no-op off unix).
pub fn install_shutdown_handler() {
    imp::install();
}

/// Whether a shutdown signal has arrived since
/// [`install_shutdown_handler`].
pub fn shutdown_requested() -> bool {
    REQUESTED.load(Ordering::SeqCst)
}
