//! The pipeline observability contract: every backend emits the same
//! well-formed, typed event stream, and every backend stops promptly at a
//! phase boundary when cancelled — by token, by observer, or by deadline.

use sample_align_d::prelude::*;
use sample_align_d::sad_core::VerticalConfig;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn family(n: usize, seed: u64) -> Vec<Sequence> {
    Family::generate(&FamilyConfig {
        n_seqs: n,
        avg_len: 60,
        relatedness: 700.0,
        seed,
        ..Default::default()
    })
    .seqs
}

/// An observer that records every event it sees.
#[derive(Default)]
struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl Observer for Recorder {
    fn on_event(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

impl Recorder {
    fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }
}

fn backends(p: usize) -> Vec<Backend> {
    vec![
        Backend::Sequential,
        Backend::Rayon { threads: p },
        Backend::Distributed(VirtualCluster::new(p, CostModel::beowulf_2008())),
    ]
}

/// The projections of an event stream that are deterministic on every
/// backend: the order phases started and the order they finished.
/// (`PhaseStarted(k+1)` may arrive before `PhaseFinished(k)` on the
/// message-passing backend — ranks overlap adjacent phases — so the full
/// interleaving is not compared.)
fn started(events: &[Event]) -> Vec<Phase> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::PhaseStarted { phase } => Some(*phase),
            _ => None,
        })
        .collect()
}

fn finished(events: &[Event]) -> Vec<Phase> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::PhaseFinished { phase, .. } => Some(*phase),
            _ => None,
        })
        .collect()
}

#[test]
fn every_backend_emits_a_well_formed_stream() {
    let seqs = family(24, 1);
    for backend in backends(4) {
        let name = backend.name();
        let rec = Arc::new(Recorder::default());
        let report = Aligner::new(SadConfig::default())
            .backend(backend)
            .observer(Arc::clone(&rec) as Arc<dyn Observer>)
            .run(&seqs)
            .unwrap();
        let events = rec.events();
        assert!(
            matches!(events.first(), Some(Event::RunStarted { n_seqs: 24, .. })),
            "{name}: stream must open with RunStarted"
        );
        assert!(
            matches!(events.last(), Some(Event::RunFinished { cancelled: false, .. })),
            "{name}: stream must close with RunFinished"
        );
        // Every started phase finishes, in the same order, and the
        // finished sequence is exactly the report's phase list.
        assert_eq!(started(&events), finished(&events), "{name}: unbalanced phase events");
        assert_eq!(finished(&events), report.phase_sequence(), "{name}: report/event mismatch");
        // PhaseFinished seconds agree with the recorded stats.
        for event in &events {
            if let Event::PhaseFinished { phase, work, seconds } = event {
                let stat = report.phase(*phase).unwrap();
                assert_eq!(stat.work, *work, "{name}: {phase} work mismatch");
                assert_eq!(stat.seconds, Some(*seconds), "{name}: {phase} seconds mismatch");
            }
        }
        // One BucketAligned per non-empty bucket, covering every row.
        let buckets: Vec<(usize, usize)> = events
            .iter()
            .filter_map(|e| match e {
                Event::BucketAligned { bucket, rows, .. } => Some((*bucket, *rows)),
                _ => None,
            })
            .collect();
        let nonempty = report.bucket_sizes.iter().filter(|&&s| s > 0).count();
        assert_eq!(buckets.len(), nonempty, "{name}: one event per aligned bucket");
        assert_eq!(buckets.iter().map(|&(_, r)| r).sum::<usize>(), 24, "{name}");
    }
}

#[test]
fn decomposed_backends_emit_identical_phase_sequences() {
    // The satellite parity check: the rayon and distributed pipelines are
    // step-identical, so their typed phase sequences must match event for
    // event; the sequential baseline runs the one phase it has.
    let seqs = family(24, 2);
    let mut streams = Vec::new();
    for backend in backends(4) {
        let rec = Arc::new(Recorder::default());
        Aligner::new(SadConfig::default())
            .backend(backend)
            .observer(Arc::clone(&rec) as Arc<dyn Observer>)
            .run(&seqs)
            .unwrap();
        streams.push(rec.events());
    }
    let (seq, ray, dist) = (&streams[0], &streams[1], &streams[2]);
    assert_eq!(started(ray), started(dist), "rayon vs distributed start order");
    assert_eq!(finished(ray), finished(dist), "rayon vs distributed finish order");
    assert_eq!(started(seq), vec![Phase::LocalAlign], "sequential is the one-phase baseline");
    // Phases run in pipeline order on every backend.
    for events in &streams {
        let order = started(events);
        let mut sorted = order.clone();
        sorted.sort();
        assert_eq!(order, sorted, "phases out of pipeline order");
    }
}

/// A capped rayon run over `total_reads` simulated reads: every bucket
/// the engine aligned (per `BucketAligned` events) must respect the cap,
/// and the `BucketSplit` trail must be well-formed.
fn assert_capped_read_run(total_reads: usize, cap: usize) {
    let sources = Family::generate(&FamilyConfig {
        n_seqs: 4,
        avg_len: 300,
        relatedness: 800.0,
        seed: 7,
        ..Default::default()
    });
    let reads = ReadSet::from_family(
        &sources,
        &ReadSimConfig { total_reads: Some(total_reads), seed: 7, ..Default::default() },
    );
    let rec = Arc::new(Recorder::default());
    let report = Aligner::new(SadConfig::default().with_max_bucket(Some(cap)))
        .backend(Backend::Rayon { threads: total_reads.div_ceil(cap).max(4) })
        .observer(Arc::clone(&rec) as Arc<dyn Observer>)
        .run(&reads.reads)
        .unwrap();
    assert_eq!(report.msa.num_rows(), total_reads, "every read lands in the alignment");
    assert!(report.bucket_sizes.iter().all(|&s| s <= cap), "{:?}", report.bucket_sizes);
    assert!(report.decomposition_depth >= 1, "{total_reads} reads over cap {cap} must split");

    let events = rec.events();
    // The observer stream is the ground truth: no engine invocation ever
    // saw more than `cap` rows...
    let aligned: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            Event::BucketAligned { rows, .. } => Some(*rows),
            _ => None,
        })
        .collect();
    assert!(!aligned.is_empty());
    assert!(aligned.iter().all(|&rows| rows <= cap), "an engine run exceeded the cap");
    assert_eq!(aligned.iter().sum::<usize>(), total_reads, "bucket rows partition the reads");
    // ...every split happened on an over-cap bucket, in increasing depth
    // per first-pass bucket, inside the sub-partition phase.
    let splits: Vec<(usize, usize, usize)> = events
        .iter()
        .filter_map(|e| match e {
            Event::BucketSplit { bucket, depth, size, .. } => Some((*bucket, *depth, *size)),
            _ => None,
        })
        .collect();
    assert!(!splits.is_empty(), "a capped large-N run must record its splits");
    let max_depth = splits.iter().map(|&(_, d, _)| d).max().unwrap();
    assert_eq!(max_depth, report.decomposition_depth, "report depth == deepest split event");
    for &(bucket, depth, size) in &splits {
        assert!(size > cap, "bucket {bucket} split at size {size} <= cap {cap}");
        assert!(depth >= 1);
    }
    for window in splits.windows(2) {
        let ((b0, d0, _), (b1, d1, _)) = (window[0], window[1]);
        assert!(b1 > b0 || (b1 == b0 && d1 >= d0), "splits arrive bucket-major, depth-increasing");
    }
    assert!(started(&events).contains(&Phase::SubPartition), "splits live in their own phase");
}

#[test]
fn capped_read_run_never_exceeds_the_bucket_cap() {
    assert_capped_read_run(2_000, 128);
}

#[test]
fn capped_read_run_at_paper_scale() {
    // The full Pyro-Align-scale contract (~minutes of wall clock): only
    // run when asked, like the 50k bench point.
    if std::env::var("SAD_PAPER_SCALE").as_deref() != Ok("1") {
        eprintln!("skipping the 50k read run (set SAD_PAPER_SCALE=1 to run it)");
        return;
    }
    assert_capped_read_run(50_000, 512);
}

#[test]
fn pre_cancelled_token_stops_every_backend_at_the_first_boundary() {
    let seqs = family(12, 3);
    // The retired vertical knob changes nothing, its first boundary included.
    let retired = SadConfig::default().with_vertical(VerticalConfig::default());
    for backend in backends(3) {
        let name = backend.name();
        let first = match backend {
            Backend::Sequential => Phase::LocalAlign,
            _ => Phase::LocalKmerRank,
        };
        for cfg in [SadConfig::default(), retired.clone()] {
            let token = CancelToken::new();
            token.cancel();
            let err = Aligner::new(cfg)
                .backend(backend.clone())
                .cancel_token(token)
                .run(&seqs)
                .unwrap_err();
            assert_eq!(err, SadError::Cancelled { phase: first }, "{name}");
        }
    }
}

#[test]
fn retired_vertical_config_runs_the_default_pipeline() {
    // A long, closely related family: the one shape on which the retired
    // vertical mode used to cut anchor-delimited blocks.
    let seqs = Family::generate(&FamilyConfig {
        n_seqs: 8,
        avg_len: 1500,
        relatedness: 120.0,
        seed: 5,
        ..Default::default()
    })
    .seqs;
    let retired = SadConfig::default().with_vertical(VerticalConfig::default());
    for backend in backends(4) {
        let name = backend.name();
        let run = |cfg: &SadConfig| Aligner::new(cfg.clone()).backend(backend.clone()).run(&seqs);
        let plain = run(&SadConfig::default()).unwrap();
        let shim = run(&retired).unwrap();
        assert_eq!(shim.msa, plain.msa, "{name}");
        assert_eq!(shim.work, plain.work, "{name}");
        assert_eq!(shim.phase_sequence(), plain.phase_sequence(), "{name}");
        assert_eq!(shim.vertical, None, "{name}");
    }
}

#[test]
fn mid_run_cancel_stops_at_the_next_phase_boundary() {
    // An observer cancels the token the moment local alignment finishes:
    // the decomposed backends must stop at a phase boundary after it,
    // without ever reaching the final glue. On the rayon backend the
    // boundary is exactly the next phase; the message-passing backend's
    // root rank may already be a phase or two ahead of the *last* rank
    // leaving local alignment (phases overlap across ranks), but its glue
    // phase synchronises on every rank, so the cut lands strictly before
    // it.
    let seqs = family(24, 4);
    for backend in backends(4).into_iter().skip(1) {
        let name = backend.name();
        let token = CancelToken::new();
        let trigger = token.clone();
        let rec = Arc::new(Recorder::default());
        let sink = Arc::clone(&rec);
        let observer = move |e: &Event| {
            sink.on_event(e);
            if matches!(e, Event::PhaseFinished { phase: Phase::LocalAlign, .. }) {
                trigger.cancel();
            }
        };
        let distributed = matches!(backend, Backend::Distributed(_));
        let err = Aligner::new(SadConfig::default())
            .backend(backend)
            .cancel_token(token)
            .observer(Arc::new(observer))
            .run(&seqs)
            .unwrap_err();
        let SadError::Cancelled { phase } = err else {
            panic!("{name}: expected Cancelled, got {err:?}");
        };
        if distributed {
            assert!(
                phase > Phase::LocalAlign && phase < Phase::Glue,
                "{name}: cancelled at {phase}, expected between local-align and glue"
            );
        } else {
            assert_eq!(phase, Phase::LocalAncestor, "{name}: rayon stops at the very next phase");
        }
        let events = rec.events();
        assert!(
            !started(&events).contains(&Phase::Glue),
            "{name}: the glue phase must never start after a mid-run cancel"
        );
        assert!(
            !finished(&events).contains(&phase),
            "{name}: the cancelled phase must never finish"
        );
        assert!(
            matches!(events.last(), Some(Event::RunFinished { cancelled: true, .. })),
            "{name}: cancelled runs still close their stream"
        );
    }
}

#[test]
fn exhausted_deadline_cancels_every_backend() {
    let seqs = family(12, 5);
    for backend in backends(3) {
        let name = backend.name();
        let err = Aligner::new(SadConfig::default())
            .backend(backend)
            .deadline(Duration::ZERO)
            .run(&seqs)
            .unwrap_err();
        assert!(matches!(err, SadError::Cancelled { .. }), "{name}: got {err:?}");
    }
    // A generous deadline never fires.
    let report = Aligner::new(SadConfig::default())
        .backend(Backend::Rayon { threads: 2 })
        .deadline(Duration::from_secs(3600))
        .run(&seqs)
        .unwrap();
    assert_eq!(report.msa.num_rows(), 12);
}

#[test]
fn cancellation_does_not_poison_the_aligner() {
    // The same builder can run again after a cancelled run — the recorder
    // is per-run state, not per-aligner.
    let seqs = family(12, 6);
    let token = CancelToken::new();
    let aligner = Aligner::new(SadConfig::default())
        .backend(Backend::Rayon { threads: 2 })
        .cancel_token(token.clone());
    token.cancel();
    assert!(aligner.run(&seqs).is_err());
    // ...but a fresh aligner without the cancelled token succeeds.
    let clean = Aligner::new(SadConfig::default()).backend(Backend::Rayon { threads: 2 });
    assert_eq!(clean.run(&seqs).unwrap().msa.num_rows(), 12);
}
