//! Integration suite for the `sad serve` daemon: end-to-end submission
//! on every backend, the BiG-SCAPE-style kill/restart resume path, the
//! journal's torn-tail/corrupt-interior contract, output verification,
//! the result cache's zero-new-work guarantee, immediate queue-slot
//! release on cancellation, and client-disconnect tolerance — all driven
//! through the in-process [`ServeHarness`] fixture with fault injection.

use proptest::prelude::*;
use rosegen::{Family, FamilyConfig};
use sad_core::{Aligner, Backend, SadConfig};
use sad_serve::harness::ServeHarness;
use sad_serve::journal::JournalEntry;
use sad_serve::json::Json;
use sad_serve::server::Server;
use sad_serve::Submitted;
use std::time::Duration;
use vcluster::{CostModel, VirtualCluster};

const WAIT: Duration = Duration::from_secs(60);

/// A deterministic synthetic family rendered as FASTA.
fn family_fasta(n: usize, len: usize, seed: u64) -> String {
    let family = Family::generate(&FamilyConfig {
        n_seqs: n,
        avg_len: len,
        relatedness: 700.0,
        seed,
        ..Default::default()
    });
    bioseq::fasta::write(&family.seqs)
}

/// The aligned FASTA a direct (serverless) run of the same pipeline
/// produces for this input — the byte-identity reference.
fn direct_alignment(fasta: &str, backend: &Backend) -> String {
    let seqs = bioseq::fasta::parse(fasta).expect("fixture parses");
    let report = Aligner::new(SadConfig::default())
        .backend(backend.clone())
        .run(&seqs)
        .expect("direct run succeeds");
    bioseq::fasta::write_alignment(&report.msa)
}

fn submit_ok(client: &mut sad_serve::Client, id: &str, fasta: &str) -> String {
    match client.submit(Some(id), 0, fasta).expect("submit") {
        Submitted::Accepted { job } => job,
        Submitted::Rejected { reason } => panic!("{id} rejected: {reason}"),
    }
}

fn event_kind(e: &Json) -> &str {
    e.get("event").and_then(Json::as_str).unwrap_or("?")
}

#[test]
fn submit_stream_result_on_every_backend() {
    for backend in [
        Backend::Sequential,
        Backend::Rayon { threads: 2 },
        Backend::Distributed(VirtualCluster::new(2, CostModel::beowulf_2008())),
    ] {
        let label = backend.name();
        let mut h = ServeHarness::new(&format!("e2e-{label}")).backend(backend.clone()).start();
        let mut client = h.client();
        let fasta = family_fasta(8, 50, 7);
        let job = submit_ok(&mut client, "fam", &fasta);

        // The stream carries started, at least one phase event, then the
        // result — in that order for a single job.
        let started =
            client.wait_event(WAIT, |e| event_kind(e) == "started").expect("started event");
        assert_eq!(started.get("job").and_then(Json::as_str), Some(job.as_str()), "{label}");
        let result = client.wait_result(&job, WAIT).expect("result event");
        let phase = client
            .wait_event(Duration::from_secs(1), |e| event_kind(e) == "phase")
            .unwrap_or_else(|_| panic!("{label}: no phase events streamed"));
        assert!(phase.get("phase").and_then(Json::as_str).is_some(), "{label}");

        assert_eq!(result.get("cached").and_then(Json::as_bool), Some(false), "{label}");
        let aligned = result.get("fasta").and_then(Json::as_str).expect("result fasta");
        assert_eq!(aligned, direct_alignment(&fasta, &backend), "{label}: parity with direct run");
        assert_eq!(result.get("rows").and_then(Json::as_u64), Some(8), "{label}: all rows aligned");
        // The output file on disk is the same bytes the stream carried.
        let on_disk = std::fs::read_to_string(h.output_path(&job)).expect("output file");
        assert_eq!(on_disk, aligned, "{label}");
        let stats = h.shutdown();
        assert_eq!((stats.completed, stats.cache_hits), (1, 0), "{label}: computed, not cached");
    }
}

#[test]
fn served_job_under_a_trim_config_matches_the_direct_run() {
    // `sad serve --trim` hands every job a trim config. Two short
    // fragments make the stage bite: dropping them frees their gap
    // columns, so the served rows are fewer than the submitted ones.
    let cfg = SadConfig::default().with_trim(sad_core::TrimConfig::default());
    let mut fasta = family_fasta(6, 60, 11);
    fasta.push_str(">frag1\nMKVLAWGKVL\n>frag2\nGKVLAWMKIL\n");
    let seqs = bioseq::fasta::parse(&fasta).expect("fixture parses");
    let direct = |cfg: SadConfig| {
        let report = Aligner::new(cfg).run(&seqs).expect("direct run succeeds");
        bioseq::fasta::write_alignment(&report.msa)
    };
    let trimmed = direct(cfg.clone());
    assert_ne!(trimmed, direct(SadConfig::default()), "the fixture must give trim work to do");

    let mut h = ServeHarness::new("trim").sad_config(cfg).start();
    let mut client = h.client();
    let job = submit_ok(&mut client, "gappy", &fasta);
    let result = client.wait_result(&job, WAIT).expect("result event");
    assert_eq!(result.get("fasta").and_then(Json::as_str), Some(trimmed.as_str()));
    assert_eq!(std::fs::read_to_string(h.output_path(&job)).expect("output file"), trimmed);
    h.shutdown();
}

#[test]
fn kill_mid_batch_then_restart_resumes_unfinished_and_skips_finished() {
    let hold = sad_serve::JobHold::new();
    let mut h = ServeHarness::new("kill-restart").workers(1).hold(hold.clone()).start();
    let mut client = h.client();
    let inputs = [
        ("fam_a", family_fasta(6, 40, 1)),
        ("fam_b", family_fasta(6, 40, 2)),
        ("fam_c", family_fasta(8, 50, 3)),
        ("fam_d", family_fasta(8, 50, 4)),
    ];
    // A and B run to completion with the hold disengaged.
    for (id, fasta) in &inputs[..2] {
        submit_ok(&mut client, id, fasta);
        client.wait_result(id, WAIT).expect("pre-crash result");
    }
    // Pin the worker inside fam_c: with the hold engaged it journals
    // `Started`, streams its started event, and parks. fam_d stays
    // queued behind it (one worker). Then crash the server.
    hold.engage();
    submit_ok(&mut client, "fam_c", &inputs[2].1);
    submit_ok(&mut client, "fam_d", &inputs[3].1);
    client
        .wait_event(WAIT, |e| {
            event_kind(e) == "started" && e.get("job").and_then(Json::as_str) == Some("fam_c")
        })
        .expect("fam_c pinned mid-run");
    h.kill();

    let entries = h.journal_entries();
    let finished_ok = |job: &str| {
        entries
            .iter()
            .any(|e| matches!(e, JournalEntry::Finished { job: j, ok: true, .. } if j == job))
    };
    let started = |job: &str| {
        entries.iter().any(|e| matches!(e, JournalEntry::Started { job: j } if j == job))
    };
    assert!(finished_ok("fam_a") && finished_ok("fam_b"));
    assert!(started("fam_c") && !finished_ok("fam_c"), "fam_c died mid-run, un-journaled");
    assert!(!started("fam_d") && !finished_ok("fam_d"), "fam_d was still queued at the crash");

    // Restart against the same journal and output directory.
    hold.release();
    h.restart();
    let recovery = h.recovery().clone();
    assert!(recovery.skipped.contains(&"fam_a".to_string()), "{recovery:?}");
    assert!(recovery.skipped.contains(&"fam_b".to_string()), "{recovery:?}");
    assert!(recovery.requeued.contains(&"fam_c".to_string()), "{recovery:?}");
    assert!(recovery.requeued.contains(&"fam_d".to_string()), "{recovery:?}");
    assert!(h.server().wait_idle(WAIT), "recovered jobs drain: {:?}", h.server().stats());
    h.shutdown();

    // Every journaled job ends Finished{ok} exactly once across the whole
    // journal, and the finished-before-kill jobs were started exactly
    // once (skipped on restart, not re-run).
    let entries = h.journal_entries();
    for (id, fasta) in &inputs {
        let ok_count = entries
            .iter()
            .filter(|e| matches!(e, JournalEntry::Finished { job, ok: true, .. } if job == id))
            .count();
        assert_eq!(ok_count, 1, "{id}: exactly one successful Finished entry");
        let on_disk = std::fs::read_to_string(h.output_path(id)).expect("output exists");
        assert_eq!(
            on_disk,
            direct_alignment(fasta, &Backend::Sequential),
            "{id}: byte-identical to an uninterrupted run"
        );
    }
    for id in ["fam_a", "fam_b"] {
        let starts = entries
            .iter()
            .filter(|e| matches!(e, JournalEntry::Started { job } if job == id))
            .count();
        assert_eq!(starts, 1, "{id} was verified-skipped on restart, not re-run");
    }
}

#[test]
fn torn_final_journal_line_is_tolerated() {
    let mut h = ServeHarness::new("torn-tail").start();
    let mut client = h.client();
    let fasta = family_fasta(6, 40, 11);
    let job = submit_ok(&mut client, "fam", &fasta);
    client.wait_result(&job, WAIT).expect("result");
    h.shutdown();

    // Both torn-write shapes: a half-line with no newline, and a newline
    // that made it out around garbage.
    h.append_torn_line();
    h.restart();
    assert!(h.recovery().dropped_torn_tail, "torn tail reported");
    assert!(h.recovery().skipped.contains(&"fam".to_string()), "verified job still skipped");
    assert!(h.recovery().requeued.is_empty());
    h.shutdown();
}

#[test]
fn corrupt_interior_journal_line_is_a_hard_error() {
    let mut h = ServeHarness::new("corrupt-interior").start();
    let mut client = h.client();
    let fasta = family_fasta(6, 40, 12);
    let job = submit_ok(&mut client, "fam", &fasta);
    client.wait_result(&job, WAIT).expect("result");
    h.shutdown();

    // Corrupt the FIRST line: now followed by valid lines, so replay must
    // refuse rather than silently dropping journaled work.
    h.corrupt_journal_line(0);
    let err = match Server::start(h.config()) {
        Ok(_) => panic!("corrupt interior must refuse to start"),
        Err(e) => e,
    };
    let rendered = err.to_string();
    assert!(rendered.contains("corrupt journal line 1"), "{rendered}");
}

#[test]
fn missing_or_corrupt_output_file_is_rerun_on_restart() {
    let mut h = ServeHarness::new("verify-output").start();
    let mut client = h.client();
    let fasta_a = family_fasta(6, 40, 21);
    let fasta_b = family_fasta(6, 40, 22);
    let job_a = submit_ok(&mut client, "fam_a", &fasta_a);
    let job_b = submit_ok(&mut client, "fam_b", &fasta_b);
    client.wait_result(&job_a, WAIT).expect("fam_a result");
    client.wait_result(&job_b, WAIT).expect("fam_b result");
    h.shutdown();

    // fam_a's output vanishes; fam_b's is tampered with. Neither passes
    // the journaled-digest check, so both must re-run.
    h.remove_output("fam_a");
    h.corrupt_output("fam_b");
    h.restart();
    let recovery = h.recovery().clone();
    assert!(recovery.reran.contains(&"fam_a".to_string()), "{recovery:?}");
    assert!(recovery.reran.contains(&"fam_b".to_string()), "{recovery:?}");
    assert!(h.server().wait_idle(WAIT));
    h.shutdown();
    for (id, fasta) in [("fam_a", &fasta_a), ("fam_b", &fasta_b)] {
        let on_disk = std::fs::read_to_string(h.output_path(id)).expect("regenerated output");
        assert_eq!(on_disk, direct_alignment(fasta, &Backend::Sequential), "{id}");
    }
}

#[test]
fn restart_rewarm_respects_the_cache_budget() {
    // Three results fit comfortably in the default 64 MiB cache, but not
    // in a 1 KiB one: journal replay re-warms in completion order, so the
    // LRU budget must keep the newest results and evict the oldest.
    let mut h = ServeHarness::new("rewarm-budget").cache_budget_bytes(1024).start();
    let mut client = h.client();
    let fastas: Vec<String> = (0..3).map(|i| family_fasta(6, 60, 40 + i as u64)).collect();
    for (i, fasta) in fastas.iter().enumerate() {
        let id = submit_ok(&mut client, &format!("fam_{i}"), fasta);
        client.wait_result(&id, WAIT).expect("result");
    }
    h.shutdown();

    h.restart();
    assert!(h.server().wait_idle(WAIT));
    let warmed = h.server().cache_len();
    assert!((1..3).contains(&warmed), "replay re-warmed {warmed} entries under a 2 KiB budget");

    // The newest result survived replay; the oldest was evicted, so
    // resubmitting it is a cold run again.
    let mut client = h.client();
    let hot = submit_ok(&mut client, "hot", &fastas[2]);
    let hot_result = client.wait_result(&hot, WAIT).expect("hot result");
    assert_eq!(hot_result.get("cached").and_then(Json::as_bool), Some(true));
    let cold = submit_ok(&mut client, "cold", &fastas[0]);
    let cold_result = client.wait_result(&cold, WAIT).expect("cold result");
    assert_eq!(cold_result.get("cached").and_then(Json::as_bool), Some(false));
    h.shutdown();
}

#[test]
fn cached_resubmission_does_zero_new_dp_work() {
    let mut h = ServeHarness::new("cache").start();
    let mut client = h.client();
    let fasta = family_fasta(8, 50, 31);
    let job = submit_ok(&mut client, "fam", &fasta);
    let cold = client.wait_result(&job, WAIT).expect("cold result");
    assert_eq!(cold.get("cached").and_then(Json::as_bool), Some(false));
    let cells_after_cold = h.server().stats().dp_cells;
    assert!(cells_after_cold > 0, "the cold run did real DP work");

    // Same bytes, new id: answered from the cache at accept time.
    let resubmit = submit_ok(&mut client, "fam", &fasta);
    assert_eq!(resubmit, "fam-2", "duplicate id is unique-ified");
    let warm = client.wait_result(&resubmit, WAIT).expect("warm result");
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        warm.get("fasta").and_then(Json::as_str),
        cold.get("fasta").and_then(Json::as_str),
        "cache returns byte-identical FASTA"
    );
    assert_eq!(
        h.server().stats().dp_cells,
        cells_after_cold,
        "cached resubmission computed zero DP cells"
    );
    // The cached job still writes its own verified output file.
    let on_disk = std::fs::read_to_string(h.output_path(&resubmit)).expect("cached output");
    assert_eq!(Some(on_disk.as_str()), cold.get("fasta").and_then(Json::as_str));
    h.shutdown();
}

#[test]
fn draining_server_refuses_cached_submissions() {
    let mut h = ServeHarness::new("drain-cached").start();
    let mut a = h.client();
    let fasta = family_fasta(6, 40, 33);
    let job = submit_ok(&mut a, "fam", &fasta);
    a.wait_result(&job, WAIT).expect("cold result");
    let journaled = h.journal_entries().len();

    // Another client asks the server to drain.
    let mut b = h.client();
    b.shutdown().expect("send shutdown");
    b.wait_event(WAIT, |e| event_kind(e) == "bye").expect("bye");

    // The result is cached, but a draining server takes no new work: the
    // cached path is refused exactly like an uncached one.
    match a.submit(Some("again"), 0, &fasta).expect("submit") {
        Submitted::Rejected { reason } => assert_eq!(reason, "server shutting down"),
        Submitted::Accepted { job } => panic!("draining server accepted {job}"),
    }
    assert_eq!(h.journal_entries().len(), journaled, "a refused submission journals nothing");
    assert!(!h.output_path("again").exists(), "a refused submission writes no output");
    let stats = h.shutdown();
    assert_eq!((stats.accepted, stats.cache_hits), (1, 0));
}

#[test]
fn restart_under_another_config_never_serves_the_old_results() {
    let mut h = ServeHarness::new("other-config").start();
    let mut client = h.client();
    let fasta = family_fasta(8, 50, 34);
    let job = submit_ok(&mut client, "fam", &fasta);
    client.wait_result(&job, WAIT).expect("result under the default config");
    h.shutdown();

    // Same journal and output directory, another pipeline configuration.
    let other = SadConfig::default().with_kmer_k(5);
    let mut cfg = h.config();
    cfg.sad = other.clone();
    let server = Server::start(cfg).expect("restart under another config");
    assert!(server.recovery.skipped.contains(&job), "{:?}", server.recovery);
    assert_eq!(server.cache_len(), 0, "the old config's result warms no cache entry");

    let mut client =
        sad_serve::Client::connect_with_retry(server.addr(), WAIT).expect("connect client");
    let again = submit_ok(&mut client, "fam", &fasta);
    let result = client.wait_result(&again, WAIT).expect("result under the new config");
    assert_eq!(result.get("cached").and_then(Json::as_bool), Some(false));
    let seqs = bioseq::fasta::parse(&fasta).expect("fixture parses");
    let direct = Aligner::new(other).run(&seqs).expect("direct run succeeds");
    assert_eq!(
        result.get("fasta").and_then(Json::as_str),
        Some(bioseq::fasta::write_alignment(&direct.msa).as_str()),
        "served bytes are the new config's"
    );
    let stats = server.shutdown();
    assert!(stats.dp_cells > 0, "the resubmission ran: {stats:?}");
    assert_eq!(stats.cache_hits, 0);
}

#[test]
fn cancelling_a_queued_job_releases_its_slot_immediately() {
    // Queue of 2 with paused workers: the bound is reached, a cancel
    // must free the slot with no worker involvement at all.
    let mut h =
        ServeHarness::new("cancel-queued").workers(1).paused(true).queue_capacity(2).start();
    let mut client = h.client();
    let job_a = submit_ok(&mut client, "fam_a", &family_fasta(6, 40, 41));
    let job_b = submit_ok(&mut client, "fam_b", &family_fasta(6, 40, 42));
    match client.submit(Some("fam_c"), 0, &family_fasta(6, 40, 43)).expect("submit") {
        Submitted::Rejected { reason } => assert!(reason.contains("queue full"), "{reason}"),
        Submitted::Accepted { job } => panic!("queue bound ignored, accepted {job}"),
    }

    client.cancel(&job_b).expect("cancel");
    let cancelled =
        client.wait_event(WAIT, |e| event_kind(e) == "cancelled").expect("cancelled event");
    assert_eq!(cancelled.get("job").and_then(Json::as_str), Some(job_b.as_str()));
    // Workers are still paused: the freed slot is usable right now.
    let job_c = submit_ok(&mut client, "fam_c", &family_fasta(6, 40, 43));

    h.release_workers();
    client.wait_result(&job_a, WAIT).expect("fam_a result");
    client.wait_result(&job_c, WAIT).expect("fam_c result");
    let stats = h.shutdown();
    assert_eq!(stats.cancelled, 1);
    // The cancelled job has exactly one terminal entry and was never
    // started by any worker.
    let entries = h.journal_entries();
    let b_terms: Vec<&JournalEntry> = entries
        .iter()
        .filter(|e| e.job() == job_b && !matches!(e, JournalEntry::Accepted { .. }))
        .collect();
    assert_eq!(b_terms.len(), 1, "{b_terms:?}");
    assert!(
        matches!(b_terms[0], JournalEntry::Finished { ok: false, .. }),
        "cancelled before start, never Started: {:?}",
        b_terms[0]
    );
}

#[test]
fn cancelling_a_running_job_stops_it_at_a_phase_boundary() {
    let hold = sad_serve::JobHold::new();
    let mut h = ServeHarness::new("cancel-running").hold(hold.clone()).start();
    hold.engage();
    let mut client = h.client();
    // The hold pins the job right after its started event, so the cancel
    // provably lands while it is running — at any alignment speed.
    let job = submit_ok(&mut client, "big", &family_fasta(8, 50, 51));
    client.wait_event(WAIT, |e| event_kind(e) == "started").expect("started");
    client.cancel(&job).expect("cancel");
    client.wait_event(WAIT, |e| event_kind(e) == "cancel-requested").expect("cancel acknowledged");
    hold.release();
    let terminal = client.wait_terminal(&job, WAIT).expect("terminal event");
    assert_eq!(event_kind(&terminal), "cancelled", "{}", terminal.encode());

    // The worker is free again: a fresh job completes normally.
    let next = submit_ok(&mut client, "after", &family_fasta(6, 40, 52));
    client.wait_result(&next, WAIT).expect("post-cancel job runs");
    let stats = h.shutdown();
    assert_eq!(stats.cancelled, 1);
    assert!(!h.output_path(&job).exists(), "cancelled job leaves no output file");
}

#[test]
fn traversal_shaped_job_ids_are_rejected_before_any_write() {
    let mut h = ServeHarness::new("hostile-ids").start();
    let mut client = h.client();
    let fasta = family_fasta(6, 40, 71);
    // Ids are interpolated into output paths; every path-shaped or
    // otherwise unsafe id must be refused at submit time.
    for hostile in
        ["../../escape", "/tmp/abs-path", "..", ".hidden", "a/b", "fam a", &"x".repeat(200)]
    {
        match client.submit(Some(hostile), 0, &fasta).expect("submit") {
            Submitted::Rejected { reason } => {
                assert!(reason.contains("invalid job id"), "{hostile:?}: {reason}")
            }
            Submitted::Accepted { job } => panic!("{hostile:?} accepted as {job}"),
        }
    }
    // Nothing was journaled or written for the refused submissions, and a
    // well-formed id still goes through on the same connection.
    assert!(h.journal_entries().is_empty(), "rejected ids leave no journal trail");
    let job = submit_ok(&mut client, "fam_ok.1-x", &fasta);
    client.wait_result(&job, WAIT).expect("valid id still accepted");
    let escape = h.out_dir().parent().expect("out dir has a parent").join("escape.aligned.fa");
    assert!(!escape.exists(), "no output escaped the output directory");
    h.shutdown();
}

#[test]
fn client_disconnect_mid_stream_does_not_lose_the_job() {
    let mut h = ServeHarness::new("disconnect").workers(1).paused(true).start();
    let mut client = h.client();
    let job = submit_ok(&mut client, "fam", &family_fasta(8, 50, 61));
    drop(client); // disconnect before the job even starts
    h.release_workers();
    assert!(h.server().wait_idle(WAIT));
    let stats = h.shutdown();
    assert_eq!(stats.completed, 1, "the job completed with nobody listening");
    let entries = h.journal_entries();
    assert!(
        entries
            .iter()
            .any(|e| matches!(e, JournalEntry::Finished { job: j, ok: true, .. } if *j == job)),
        "journaled Finished despite the disconnect"
    );
    assert!(h.output_path(&job).exists(), "output written despite the disconnect");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cache hits return byte-identical FASTA to the cold run — and both
    /// equal a direct serverless run — for arbitrary rosegen families.
    #[test]
    fn prop_cache_hit_is_byte_identical_to_cold_run(
        n in 4usize..9,
        len in 30usize..60,
        seed in 0u64..1000,
    ) {
        let fasta = family_fasta(n, len, seed);
        let mut h = ServeHarness::new("prop-cache").start();
        let mut client = h.client();
        let cold_job = submit_ok(&mut client, "cold", &fasta);
        let cold = client.wait_result(&cold_job, WAIT).expect("cold result");
        let warm_job = submit_ok(&mut client, "warm", &fasta);
        let warm = client.wait_result(&warm_job, WAIT).expect("warm result");
        prop_assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));
        let cold_fasta = cold.get("fasta").and_then(Json::as_str).expect("cold fasta");
        let warm_fasta = warm.get("fasta").and_then(Json::as_str).expect("warm fasta");
        prop_assert_eq!(cold_fasta, warm_fasta);
        let direct = direct_alignment(&fasta, &Backend::Sequential);
        prop_assert_eq!(cold_fasta, direct.as_str());
        h.shutdown();
    }

    /// N clients submitting bursts of jobs all see balanced streams
    /// (every accepted job starts and finishes exactly once) and
    /// round-robin fairness: no client's i-th job waits behind more than
    /// one job from each other client.
    #[test]
    fn prop_concurrent_clients_get_balanced_fair_streams(
        n_clients in 2usize..4,
        jobs_each in 2usize..4,
    ) {
        let mut h = ServeHarness::new("prop-fair").workers(1).paused(true).start();
        let mut clients: Vec<_> = (0..n_clients).map(|_| h.client()).collect();
        // Submission order: all of client 0's jobs, then all of client
        // 1's, … — the worst case for fairness.
        let mut expected: Vec<Vec<String>> = vec![Vec::new(); n_clients];
        for (c, client) in clients.iter_mut().enumerate() {
            for j in 0..jobs_each {
                let id = format!("c{c}-j{j}");
                let fasta = family_fasta(5, 35, (c * 10 + j) as u64);
                let job = submit_ok(client, &id, &fasta);
                expected[c].push(job);
            }
        }
        h.release_workers();
        for (c, client) in clients.iter_mut().enumerate() {
            for job in &expected[c] {
                client.wait_result(job, WAIT).expect("every job completes");
            }
        }
        // Distinct families: every job did real work, none was a cache hit.
        let stats = h.shutdown();
        prop_assert_eq!(stats.completed, n_clients * jobs_each);
        prop_assert_eq!(stats.cache_hits, 0);

        let entries = h.journal_entries();
        let started_order: Vec<String> = entries.iter().filter_map(|e| match e {
            JournalEntry::Started { job } => Some(job.clone()),
            _ => None,
        }).collect();
        prop_assert_eq!(started_order.len(), n_clients * jobs_each);
        for (c, jobs) in expected.iter().enumerate() {
            for (j, job) in jobs.iter().enumerate() {
                let pos = started_order.iter().position(|s| s == job)
                    .expect("every accepted job started");
                // Round-robin bound: before this client's j-th job, each
                // client contributes at most j+1 starts.
                prop_assert!(
                    pos < (j + 1) * n_clients,
                    "client {}'s job {} started at position {} (bound {}): {:?}",
                    c, j, pos, (j + 1) * n_clients, started_order
                );
                let finishes = entries.iter().filter(|e| matches!(
                    e, JournalEntry::Finished { job: f, ok: true, .. } if f == job
                )).count();
                prop_assert_eq!(finishes, 1);
            }
        }
    }
}
