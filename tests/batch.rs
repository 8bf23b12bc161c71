//! The batch subsystem's contract: `run_batch` is nothing but N
//! independent `Aligner::run`s — byte-identical alignments on every
//! backend, in any job order — with per-job failure isolation, a
//! well-formed `JobStarted`/`JobFinished` event stream, and jobs that
//! really run concurrently.

use proptest::prelude::*;
use sample_align_d::prelude::*;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

fn backends(p: usize) -> Vec<Backend> {
    vec![
        Backend::Sequential,
        Backend::Rayon { threads: p },
        Backend::Distributed(VirtualCluster::new(p, CostModel::beowulf_2008())),
    ]
}

fn family(n: usize, seed: u64) -> Vec<Sequence> {
    Family::generate(&FamilyConfig {
        n_seqs: n,
        avg_len: 50,
        relatedness: 700.0,
        seed,
        ..Default::default()
    })
    .seqs
}

/// Strategy: 1–5 jobs of 2–10 arbitrary protein sequences each, every
/// sequence long enough for the default k-mer length.
fn arb_jobs() -> impl Strategy<Value = Vec<BatchJob>> {
    prop::collection::vec(prop::collection::vec(prop::collection::vec(0u8..20, 8..40), 2..10), 1..5)
        .prop_map(|jobs| {
            jobs.into_iter()
                .enumerate()
                .map(|(j, fams)| {
                    let seqs: Vec<Sequence> = fams
                        .into_iter()
                        .enumerate()
                        .map(|(i, codes)| Sequence::from_codes(format!("j{j}s{i}"), codes))
                        .collect();
                    BatchJob::new(format!("job-{j}"), seqs)
                })
                .collect()
        })
}

/// Deterministic in-place shuffle (xorshift), so "under shuffled job
/// order" is reproducible from the proptest seed.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        items.swap(i, (seed % (i as u64 + 1)) as usize);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole parity property: for every backend, each job's MSA in
    /// a `run_batch` result is byte-identical to the corresponding single
    /// `Aligner::run` on the same family — including under shuffled job
    /// order and whatever worker count the pool uses.
    #[test]
    fn batch_equals_single_on_every_backend(
        jobs in arb_jobs(),
        shuffle_seed in 0u64..u64::MAX,
        workers in 1usize..4,
    ) {
        for backend in backends(3) {
            let name = backend.name();
            let aligner = Aligner::new(SadConfig::default()).backend(backend);
            // Reference: one independent run per job, keyed by id.
            let singles: Vec<(String, RunReport)> = jobs
                .iter()
                .map(|j| (j.id.clone(), aligner.run(&j.seqs).expect("valid input")))
                .collect();
            let mut shuffled = jobs.clone();
            shuffle(&mut shuffled, shuffle_seed | 1);
            let batch = aligner.run_batch_with(&shuffled, workers);
            prop_assert_eq!(batch.failed(), 0, "{}: no job may fail", name);
            for (submitted, got) in shuffled.iter().zip(&batch.jobs) {
                prop_assert_eq!(&got.id, &submitted.id, "{}: submission order kept", name);
                let single =
                    &singles.iter().find(|(id, _)| id == &got.id).expect("known id").1;
                let batched = got.outcome.as_ref().expect("succeeded");
                // Byte-identical: compare the serialized alignments, not
                // just the Msa values.
                prop_assert_eq!(
                    fasta::write_alignment(&batched.msa),
                    fasta::write_alignment(&single.msa),
                    "{}: {} diverged from its single run", name, got.id
                );
                prop_assert_eq!(batched.work, single.work, "{}: {} work", name, got.id);
                prop_assert_eq!(
                    batched.phase_sequence(),
                    single.phase_sequence(),
                    "{}: {} phases", name, got.id
                );
            }
        }
    }
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

#[test]
fn failure_isolation_with_a_well_formed_event_stream() {
    // A batch mixing healthy jobs, a TooFewSequences job and a poisoned
    // (cancelled-mid-job) job must complete the healthy jobs, report the
    // others per job, and keep the event stream balanced.
    let poison = CancelToken::new();
    let jobs = vec![
        BatchJob::new("ok-a", family(8, 1)),
        BatchJob::new("too-few", family(1, 2)),
        BatchJob::new("poisoned", family(8, 3)).with_cancel(poison.clone()),
        BatchJob::new("ok-b", family(6, 4)),
    ];
    for backend in backends(2) {
        let name = backend.name();
        let rec = Arc::new(Recorder::default());
        // Poison job 2 the moment it starts — a mid-batch cancellation,
        // not a pre-failed input.
        let trigger = poison.clone();
        let sink = Arc::clone(&rec);
        let observer = move |e: &Event| {
            sink.on_event(e);
            if matches!(e, Event::JobStarted { job: 2, .. }) {
                trigger.cancel();
            }
        };
        let batch = Aligner::new(SadConfig::default())
            .backend(backend)
            .observer(Arc::new(observer))
            .run_batch_with(&jobs, 2);

        // The healthy jobs completed despite their neighbours.
        assert!(batch.job("ok-a").unwrap().outcome.is_ok(), "{name}");
        assert!(batch.job("ok-b").unwrap().outcome.is_ok(), "{name}");
        assert_eq!(
            batch.job("too-few").unwrap().outcome,
            Err(SadError::TooFewSequences { found: 1 }),
            "{name}"
        );
        assert!(
            matches!(batch.job("poisoned").unwrap().outcome, Err(SadError::Cancelled { .. })),
            "{name}: {:?}",
            batch.job("poisoned").unwrap().outcome
        );
        assert_eq!(batch.succeeded(), 2, "{name}");
        assert_eq!(batch.failed(), 2, "{name}");

        // Event stream well-formedness: every JobStarted has exactly one
        // matching JobFinished, with the right verdict, and never before
        // its start.
        let events = rec.events.lock().unwrap().clone();
        for (i, job) in jobs.iter().enumerate() {
            let starts: Vec<usize> = events
                .iter()
                .enumerate()
                .filter_map(|(k, e)| match e {
                    Event::JobStarted { job, id, n_seqs } if *job == i => {
                        assert_eq!(id, &jobs[i].id, "{name}");
                        assert_eq!(*n_seqs, jobs[i].seqs.len(), "{name}");
                        Some(k)
                    }
                    _ => None,
                })
                .collect();
            let finishes: Vec<(usize, bool)> = events
                .iter()
                .enumerate()
                .filter_map(|(k, e)| match e {
                    Event::JobFinished { job, ok, .. } if *job == i => Some((k, *ok)),
                    _ => None,
                })
                .collect();
            assert_eq!(starts.len(), 1, "{name}: job {i} started once");
            assert_eq!(finishes.len(), 1, "{name}: job {i} finished once");
            assert!(starts[0] < finishes[0].0, "{name}: job {i} finished before starting");
            let expect_ok = batch.jobs[i].outcome.is_ok();
            assert_eq!(finishes[0].1, expect_ok, "{name}: job {i} ({}) verdict", job.id);
        }
        poison.cancel(); // keep the token poisoned for the next backend
    }
}

#[test]
fn two_workers_run_two_jobs_at_once_on_every_backend() {
    // Job 0's observer call blocks until job 1 has started. Only a
    // scheduler that really runs both jobs concurrently gets there; a
    // serial one would leave job 0 waiting out the bound and fail.
    let jobs: Vec<BatchJob> =
        (0..2).map(|i| BatchJob::new(format!("j{i}"), family(6, i as u64))).collect();
    for backend in backends(2) {
        let name = backend.name();
        // (job 1 started, job 0 saw it while blocked)
        let gate = Arc::new((Mutex::new((false, false)), Condvar::new()));
        let seen = Arc::clone(&gate);
        let observer = move |e: &Event| {
            let (lock, cv) = &*seen;
            match e {
                Event::JobStarted { job: 0, .. } => {
                    let wait = Duration::from_secs(30);
                    let mut state =
                        cv.wait_timeout_while(lock.lock().unwrap(), wait, |s| !s.0).unwrap().0;
                    state.1 = state.0;
                }
                Event::JobStarted { job: 1, .. } => {
                    lock.lock().unwrap().0 = true;
                    cv.notify_all();
                }
                _ => {}
            }
        };
        let batch = Aligner::new(SadConfig::default())
            .backend(backend)
            .observer(Arc::new(observer))
            .run_batch_with(&jobs, 2);
        assert_eq!(batch.failed(), 0, "{name}");
        assert!(gate.0.lock().unwrap().1, "{name}: job 0 never saw job 1 start while it ran");
    }
}

#[test]
fn batch_wide_cancellation_reaches_every_remaining_job() {
    // Cancelling the aligner's own token mid-batch stops the running job
    // at its next phase boundary and every queued job before its first
    // phase — no job hangs, every job reports.
    let token = CancelToken::new();
    let trigger = token.clone();
    let observer = move |e: &Event| {
        if matches!(e, Event::JobStarted { job: 1, .. }) {
            trigger.cancel();
        }
    };
    let jobs: Vec<BatchJob> =
        (0..4).map(|i| BatchJob::new(format!("j{i}"), family(8, i as u64))).collect();
    let batch = Aligner::new(SadConfig::default())
        .cancel_token(token)
        .observer(Arc::new(observer))
        .run_batch_with(&jobs, 1);
    assert_eq!(batch.jobs.len(), 4, "every job reports");
    assert!(batch.jobs[0].outcome.is_ok(), "job 0 finished before the cancel");
    for job in &batch.jobs[1..] {
        assert!(
            matches!(job.outcome, Err(SadError::Cancelled { .. })),
            "{}: {:?}",
            job.id,
            job.outcome
        );
    }
}

#[test]
fn aggregate_work_is_the_componentwise_job_sum() {
    // The dp_cells / dp_cells_full satellite: the aggregate must be the
    // exact per-job sum — in particular the full-matrix reference counter
    // is never folded into the filled-cell counter.
    let jobs: Vec<BatchJob> =
        (0..3).map(|i| BatchJob::new(format!("j{i}"), family(8 + i, i as u64))).collect();
    let batch = Aligner::new(SadConfig::default())
        .backend(Backend::Rayon { threads: 2 })
        .run_batch_with(&jobs, 2);
    assert_eq!(batch.failed(), 0);
    let expected: bioseq::Work = batch.jobs.iter().map(|j| j.outcome.as_ref().unwrap().work).sum();
    assert_eq!(batch.work, expected);
    assert!(batch.work.dp_cells <= 3 * batch.work.dp_cells_full, "audit invariant on aggregate");
    assert!(batch.work.total_units() > 0);
}
