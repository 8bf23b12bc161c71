//! Property-based integration tests: the pipeline's invariants must hold
//! for arbitrary (valid) inputs, not just rose families.

use proptest::prelude::*;
use sample_align_d::prelude::*;

/// Strategy: a set of 2..=12 random protein sequences with unique ids.
fn arb_sequences() -> impl Strategy<Value = Vec<Sequence>> {
    prop::collection::vec(prop::collection::vec(0u8..20, 8..40), 2..12).prop_map(|codes| {
        codes
            .into_iter()
            .enumerate()
            .map(|(i, c)| Sequence::from_codes(format!("p{i}"), c))
            .collect()
    })
}

fn on_cluster(p: usize, seqs: &[Sequence]) -> RunReport {
    let cluster = VirtualCluster::new(p, CostModel::beowulf_2008());
    Aligner::new(SadConfig::default())
        .backend(Backend::Distributed(cluster))
        .run(seqs)
        .expect("arbitrary 2+ sequence sets are valid inputs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distributed_preserves_every_sequence(seqs in arb_sequences(), p in 1usize..5) {
        let report = on_cluster(p, &seqs);
        prop_assert!(report.msa.validate().is_ok());
        prop_assert_eq!(report.msa.num_rows(), seqs.len());
        let mut got: Vec<(String, String)> = (0..report.msa.num_rows())
            .map(|r| (report.msa.ids()[r].clone(), report.msa.ungapped(r).to_letters()))
            .collect();
        got.sort();
        let mut want: Vec<(String, String)> =
            seqs.iter().map(|s| (s.id.clone(), s.to_letters())).collect();
        want.sort();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn bucket_sizes_conserve_input(seqs in arb_sequences(), p in 1usize..5) {
        let report = on_cluster(p, &seqs);
        prop_assert_eq!(report.bucket_sizes.iter().sum::<usize>(), seqs.len());
        let makespan = report.makespan().expect("distributed runs have a makespan");
        prop_assert!(makespan.is_finite() && makespan >= 0.0);
    }

    #[test]
    fn report_work_is_the_sum_of_its_phases(seqs in arb_sequences(), p in 1usize..5) {
        // The unified report's invariant, whatever the backend.
        let dist = on_cluster(p, &seqs);
        let ray = Aligner::new(SadConfig::default())
            .backend(Backend::Rayon { threads: p })
            .run(&seqs)
            .expect("valid input");
        let seq = Aligner::new(SadConfig::default()).run(&seqs).expect("valid input");
        for report in [&dist, &ray, &seq] {
            let total: bioseq::Work = report.phases.iter().map(|ph| ph.work).sum();
            prop_assert_eq!(report.work, total, "{} phases", report.backend_name());
            prop_assert!(!report.work.is_zero(), "{} did no work", report.backend_name());
        }
    }

    #[test]
    fn sp_score_finite_and_q_bounded(seqs in arb_sequences()) {
        let report = on_cluster(2, &seqs);
        let matrix = SubstMatrix::blosum62();
        let sp = report.msa.sp_score(&matrix, GapPenalties::default());
        // SP of an n x c alignment is bounded by pairs x columns x max score.
        let n = report.msa.num_rows() as i64;
        let c = report.msa.num_cols() as i64;
        prop_assert!(sp.abs() <= n * n * c * 17, "sp={sp} n={n} c={c}");
    }

    #[test]
    fn fasta_roundtrip_of_pipeline_output(seqs in arb_sequences()) {
        let report = on_cluster(2, &seqs);
        let text = fasta::write_alignment(&report.msa);
        let parsed = fasta::parse_alignment(&text).unwrap();
        prop_assert_eq!(parsed.rows(), report.msa.rows());
    }
}

/// Residues every FASTA surface accepts.
const RESIDUES: [char; 20] = [
    'A', 'C', 'D', 'E', 'F', 'G', 'H', 'I', 'K', 'L', 'M', 'N', 'P', 'Q', 'R', 'S', 'T', 'V', 'W',
    'Y',
];

/// Strategy: 1..6 records, each 1..4 residue body lines (ids are derived
/// from the record index when the text is assembled).
fn arb_fasta_records() -> impl Strategy<Value = Vec<Vec<String>>> {
    let body_line = prop::collection::vec(0usize..RESIDUES.len(), 1..20)
        .prop_map(|codes| codes.into_iter().map(|c| RESIDUES[c]).collect::<String>());
    prop::collection::vec(prop::collection::vec(body_line, 1..4), 1..6)
}

/// Assemble syntactically varied FASTA text: LF or CRLF endings,
/// multi-line records, interspersed blank lines, an optional missing
/// trailing newline, and (rarely) a leading junk line that must fail
/// identically in both parsers.
fn assemble_fasta(
    records: &[Vec<String>],
    crlf: bool,
    trailing: bool,
    blanks: &[bool],
    leading_junk: bool,
) -> String {
    let eol = if crlf { "\r\n" } else { "\n" };
    let mut text = String::new();
    if leading_junk {
        text.push_str("sequence data before any header");
        text.push_str(eol);
    }
    for (i, lines) in records.iter().enumerate() {
        text.push_str(&format!(">read_{i} case {i}{eol}"));
        for line in lines {
            text.push_str(line);
            text.push_str(eol);
        }
        if blanks[i % blanks.len()] {
            text.push_str(eol);
        }
    }
    if !trailing {
        while text.ends_with('\n') || text.ends_with('\r') {
            text.pop();
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_reader_matches_whole_file_parse(
        records in arb_fasta_records(),
        crlf in 0u8..2,
        trailing in 0u8..2,
        blank_codes in prop::collection::vec(0u8..2, 6..7),
        junk in 0u8..32,
    ) {
        let blanks: Vec<bool> = blank_codes.iter().map(|&b| b == 1).collect();
        let text =
            assemble_fasta(&records, crlf == 1, trailing == 1, &blanks, junk < 3);
        // The streaming fasta::Reader must agree with fasta::parse byte
        // for byte — same records in the same order, or the same typed
        // error — on every input shape, so `sad align` and `sad reads`
        // ingesting via the reader stay drop-in replacements for the
        // old slurp-then-parse path.
        let parsed = fasta::parse(&text);
        let streamed: Result<Vec<Sequence>, _> = fasta::Reader::new(text.as_bytes())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| match e {
                fasta::ReadError::Parse(parse_err) => parse_err,
                fasta::ReadError::Io(io_err) => {
                    panic!("in-memory reads cannot fail I/O: {io_err}")
                }
            });
        prop_assert_eq!(streamed, parsed);
    }
}

/// What no record may hold: invalid residues, multi-byte UTF-8 and bytes
/// that are never UTF-8.
const JUNK: &[&[u8]] = &[b"*1.", "é".as_bytes(), b"\xff", b"\xc3"];

/// FASTA-shaped bytes from a stream of random picks, one line per pick:
/// headers, body lines of residues, gaps, blanks and stray CRs, and blank
/// lines, each ended by LF, CRLF, two LFs or nothing (which glues it to
/// the next line). One pick in 32 is junk instead: one of [`JUNK`] or one
/// uniformly random byte. Unless `lead` is 0 the bytes start with a
/// header, so most inputs get past the first line.
fn fasta_bytes(lead: u8, picks: &[usize]) -> Vec<u8> {
    const HEADERS: &[&[u8]] = &[b">", b">id", b">id desc"];
    const BODY: &[&[u8]] = &[b"MKVLAW", b"G", b"-", b"--", b" ", b"\t", b"\r"];
    const EOL: &[&[u8]] = &[b"\n", b"\n", b"\r\n", b"\n\n", b""];
    let mut bytes = if lead == 0 { Vec::new() } else { b">lead\n".to_vec() };
    for &pick in picks {
        let mut rest = pick / 32;
        let mut take = |n: usize| {
            let digit = rest % n;
            rest /= n;
            digit
        };
        match pick % 32 {
            0 => {
                match take(JUNK.len() + 1) {
                    j if j < JUNK.len() => bytes.extend_from_slice(JUNK[j]),
                    _ => bytes.push(take(256) as u8),
                }
                continue;
            }
            1..=6 => bytes.extend_from_slice(HEADERS[take(HEADERS.len())]),
            7..=29 => {
                for _ in 0..=take(3) {
                    bytes.extend_from_slice(BODY[take(BODY.len())]);
                }
            }
            _ => {}
        }
        bytes.extend_from_slice(EOL[take(EOL.len())]);
    }
    bytes
}

/// What a parser must make of any input: records, or one typed error.
fn check_text(text: &str) -> Result<(), prop::TestCaseError> {
    if let Ok(seqs) = fasta::parse(text) {
        prop_assert!(seqs.iter().all(|s| !s.is_empty()), "parse kept an empty record");
    }
    if let Ok(msa) = fasta::parse_alignment(text) {
        prop_assert!(msa.num_rows() > 0 && msa.rows().iter().all(|r| r.len() == msa.num_cols()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `fasta::Reader`, `fasta::parse` and `fasta::parse_alignment`
    /// survive arbitrary bytes: no panic, and every outcome is records or
    /// a typed error. The reader yields at most one error and stops after
    /// it; an I/O error from in-memory bytes only ever means "not UTF-8";
    /// on UTF-8 input the reader equals `parse`. Non-UTF-8 input reaches
    /// the text parsers through its lossy decoding.
    #[test]
    fn fasta_parsers_survive_arbitrary_bytes(
        lead in 0u8..4,
        picks in prop::collection::vec(0usize..1 << 20, 0..16),
    ) {
        let bytes = fasta_bytes(lead, &picks);
        let items: Vec<_> = fasta::Reader::new(&bytes[..]).collect();
        let errors = items.iter().filter(|r| r.is_err()).count();
        prop_assert!(errors <= 1, "the reader fuses after its first error");
        if let Some(Err(e)) = items.last() {
            prop_assert!(matches!(e, fasta::ReadError::Parse(_)) || e.is_not_utf8(), "{e:?}");
        }
        match std::str::from_utf8(&bytes) {
            Ok(text) => {
                let streamed: Result<Vec<Sequence>, _> = items
                    .into_iter()
                    .collect::<Result<_, _>>()
                    .map_err(|e| match e {
                        fasta::ReadError::Parse(e) => Some(e),
                        fasta::ReadError::Io(_) => None,
                    });
                prop_assert_eq!(streamed, fasta::parse(text).map_err(Some));
                check_text(text)?;
            }
            Err(_) => check_text(&String::from_utf8_lossy(&bytes))?,
        }
    }
}

/// Bytes for the serve parsers: each pick is a JSON token, a protocol or
/// journal word, one whole well-formed line, a newline, or (one pick in
/// sixteen) a raw byte — so documents, requests, journal entries and damage
/// to all three turn up together.
fn serve_bytes(picks: &[usize]) -> Vec<u8> {
    const TOKENS: &[&[u8]] = &[
        b"{",
        b"}",
        b"[",
        b"]",
        b",",
        b":",
        b"\"",
        b"\\",
        b" ",
        b"\t",
        b"\r",
        b"\n",
        b"\n",
        b"null",
        b"true",
        b"false",
        b"0",
        b"-1",
        b"2.5",
        b"-0",
        b"1e999",
        b"9007199254740993",
        b"-",
        b"1e",
        b"\"\\u00e9\"",
        b"\"\\ud800\"",
        b"\"\\ud83d\\ude00\"",
        b"\\u",
        b"\"entry\"",
        b"\"job\"",
        b"\"accepted\"",
        b"\"started\"",
        b"\"finished\"",
        b"\"ok\"",
        b"\"digest\"",
        b"\"input\"",
        b"\"fingerprint\"",
        b"\"fasta\"",
        b"\"client\"",
        b"\"priority\"",
        b"\"cmd\"",
        b"\"submit\"",
        b"\"cancel\"",
        b"\"shutdown\"",
        b"\"id\"",
        b"\"j\"",
        b"CANCEL ",
        b"cancel ",
        b"SHUTDOWN",
        b"\xc3\xa9",
        b"{\"entry\":\"started\",\"job\":\"j\"}\n",
        b"{\"entry\":\"finished\",\"job\":\"j\",\"ok\":true,\"digest\":\"d\",\"error\":null}\n",
        b"{\"entry\":\"accepted\",\"job\":\"j\",\"client\":1,\"priority\":2,\"input\":\"i\",\
          \"fingerprint\":\"f\",\"fasta\":\">a\\nMK\\n\"}\n",
        b"{\"cmd\":\"submit\",\"id\":\"j\",\"priority\":3,\"fasta\":\">a\\nMK\\n\"}",
    ];
    let mut bytes = Vec::new();
    for &pick in picks {
        match pick % 16 {
            0 => bytes.push((pick / 16) as u8),
            _ => bytes.extend_from_slice(TOKENS[(pick / 16) % TOKENS.len()]),
        }
    }
    bytes
}

/// A reader that hands `bytes` out in the given chunk sizes, cycled; a
/// size of 0 is one `WouldBlock` tick (never two in a row, so it always
/// progresses).
struct Chunked {
    bytes: Vec<u8>,
    pos: usize,
    sizes: Vec<usize>,
    calls: usize,
    ticked: bool,
}

impl std::io::Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.calls % self.sizes.len()];
        self.calls += 1;
        if size == 0 && !self.ticked {
            self.ticked = true;
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        self.ticked = false;
        let n = size.max(1).min(buf.len()).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The serve daemon's hand-rolled parsers survive arbitrary bytes: no
    /// panic, and every outcome is a value or a typed error.
    /// * `Json::parse` — a parsed value's encoding parses back to the
    ///   same encoding;
    /// * `JournalEntry::decode` — a decoded entry's encoding decodes;
    /// * `protocol::parse_request` — a request or an error;
    /// * `journal::replay` of the bytes as a file — entries in file order,
    ///   an undecodable final line dropped as a torn tail, any earlier one
    ///   `CorruptLine` at its line number, non-UTF-8 an I/O error;
    /// * `LineReader` over arbitrary chunks and timeout ticks — the
    ///   `'\n'`-split lines, one trailing `'\r'` stripped, as lossy UTF-8.
    #[test]
    fn serve_parsers_survive_arbitrary_bytes(
        picks in prop::collection::vec(0usize..1 << 16, 0..48),
        sizes in prop::collection::vec(0usize..9, 1..8),
    ) {
        use sad_serve::journal::{self, JournalEntry, JournalError};
        use sad_serve::protocol::{parse_request, LineEvent, LineReader};
        use sad_serve::Json;

        let bytes = serve_bytes(&picks);
        let text = String::from_utf8_lossy(&bytes);
        for piece in std::iter::once(&*text).chain(text.split('\n')) {
            if let Ok(value) = Json::parse(piece) {
                let enc = value.encode();
                let back = Json::parse(&enc).map(|v| v.encode());
                prop_assert!(back.as_ref() == Ok(&enc), "{enc:?} parsed back as {back:?}");
            }
            if let Ok(entry) = JournalEntry::decode(piece) {
                let back = JournalEntry::decode(&entry.encode());
                prop_assert!(back.is_ok_and(|b| b.job() == entry.job()), "{entry:?}");
            }
            let _ = parse_request(piece);
        }

        let path = std::env::temp_dir()
            .join(format!("sad-property-journal-{}.jsonl", std::process::id()));
        std::fs::write(&path, &bytes).expect("write the journal file");
        let replayed = journal::replay(&path);
        std::fs::remove_file(&path).expect("remove the journal file");
        match std::str::from_utf8(&bytes) {
            Err(_) => prop_assert!(
                matches!(&replayed, Err(JournalError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidData),
                "{replayed:?}"
            ),
            Ok(text) => {
                // The file's lines; a final '\n' ends the last one.
                let lines: Vec<&str> = text.strip_suffix('\n').unwrap_or(text).split('\n').collect();
                let (last, interior) = lines.split_last().expect("split yields a line");
                let corrupt = interior
                    .iter()
                    .position(|l| !l.is_empty() && JournalEntry::decode(l).is_err());
                match (replayed, corrupt) {
                    (Err(JournalError::CorruptLine { line, .. }), Some(i)) => prop_assert_eq!(line, i + 1),
                    (Ok(replay), None) => {
                        let want: Vec<JournalEntry> = lines
                            .iter()
                            .filter(|l| !l.is_empty())
                            .filter_map(|l| JournalEntry::decode(l).ok())
                            .collect();
                        prop_assert_eq!(replay.entries, want);
                        let torn = !last.is_empty() && JournalEntry::decode(last).is_err();
                        prop_assert_eq!(replay.dropped_torn_tail, torn);
                    }
                    (got, want) => prop_assert!(false, "replay {got:?}, first corrupt line {want:?}"),
                }
            }
        }

        let mut pieces: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        if pieces.last().is_some_and(|p| p.is_empty()) {
            pieces.pop();
        }
        let want: Vec<String> = pieces
            .iter()
            .map(|p| String::from_utf8_lossy(p.strip_suffix(b"\r").unwrap_or(p)).into_owned())
            .collect();
        let mut reader =
            LineReader::new(Chunked { bytes: bytes.clone(), pos: 0, sizes, calls: 0, ticked: false });
        let mut got = Vec::new();
        loop {
            match reader.next_line() {
                Ok(LineEvent::Line(line)) => got.push(line),
                Ok(LineEvent::TimedOut) => {}
                Ok(LineEvent::Eof) => break,
                Err(e) => prop_assert!(false, "in-memory bytes never fail: {e}"),
            }
        }
        prop_assert_eq!(got, want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engines_are_total_on_arbitrary_inputs(seqs in arb_sequences()) {
        for engine in EngineChoice::ALL {
            let msa = engine.build_with(DpOptions::default()).align_with_work(&seqs).0;
            prop_assert!(msa.validate().is_ok(), "{:?}", engine);
            prop_assert_eq!(msa.num_rows(), seqs.len());
        }
    }
}

/// Strategy: an arbitrary gapped alignment — 2..=9 rows, 6..=49 columns
/// (ragged draws are truncated to the shortest row), roughly a quarter of
/// the cells gaps, never an all-gap row (column 0 is forced to a residue
/// when a row comes out all gaps).
fn arb_gapped_msa() -> impl Strategy<Value = Msa> {
    prop::collection::vec(prop::collection::vec(0u8..26, 6..50), 2..10).prop_map(|raw| {
        let width = raw.iter().map(Vec::len).min().expect("at least two rows");
        let rows: Vec<Vec<u8>> = raw
            .into_iter()
            .map(|mut row| {
                row.truncate(width);
                for cell in row.iter_mut() {
                    if *cell >= 20 {
                        *cell = bioseq::GAP_CODE;
                    }
                }
                if row.iter().all(|&c| c == bioseq::GAP_CODE) {
                    row[0] = 0;
                }
                row
            })
            .collect();
        let ids = (0..rows.len()).map(|i| format!("r{i}")).collect();
        Msa::from_rows(ids, rows)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trim_never_shrinks_the_area_and_output_validates(
        msa in arb_gapped_msa(),
        branch_bound in 0u8..2,
        max_dropped_raw in 0usize..5,
    ) {
        // 0 encodes "no cap"; n encodes an explicit cap of n - 1.
        let max_dropped = max_dropped_raw.checked_sub(1);
        let cfg = TrimConfig { max_dropped, branch_bound: branch_bound == 1 };
        let out = trim_msa(&msa, &cfg);
        prop_assert!(out.area_after >= out.area_before,
            "area {} -> {}", out.area_before, out.area_after);
        prop_assert!(out.msa.validate().is_ok());
        if let Some(cap) = max_dropped {
            prop_assert!(out.rows_dropped() <= cap);
        }
        // The reported areas are real: recomputing from the trimmed MSA
        // reproduces area_after exactly.
        let (area, free) = align::trim::alignment_area(&out.msa);
        prop_assert_eq!(area, out.area_after);
        prop_assert_eq!(free, out.free_cols_after);
    }

    #[test]
    fn trim_keeps_retained_rows_byte_identical(msa in arb_gapped_msa()) {
        let out = trim_msa(&msa, &TrimConfig::default());
        let dropped: std::collections::HashSet<usize> =
            out.dropped.iter().map(|d| d.index).collect();
        let kept: Vec<usize> =
            (0..msa.num_rows()).filter(|i| !dropped.contains(i)).collect();
        prop_assert_eq!(kept.len(), out.msa.num_rows());
        // Columns that are all-gap among the kept rows vanish; everything
        // else survives byte for byte, in the original row order.
        let keep_col: Vec<bool> = (0..msa.num_cols())
            .map(|c| kept.iter().any(|&r| msa.row(r)[c] != bioseq::GAP_CODE))
            .collect();
        for (new_r, &old_r) in kept.iter().enumerate() {
            prop_assert_eq!(&out.msa.ids()[new_r], &msa.ids()[old_r]);
            let expected: Vec<u8> = msa
                .row(old_r)
                .iter()
                .zip(&keep_col)
                .filter_map(|(&cell, &keep)| keep.then_some(cell))
                .collect();
            prop_assert_eq!(out.msa.row(new_r), &expected[..], "row {}", old_r);
        }
    }

    #[test]
    fn branch_and_bound_never_loses_to_greedy(msa in arb_gapped_msa()) {
        let greedy = trim_msa(&msa, &TrimConfig::default());
        let refined = trim_msa(&msa, &TrimConfig { max_dropped: None, branch_bound: true });
        prop_assert!(refined.area_after >= greedy.area_after,
            "branch-and-bound {} lost to greedy {}", refined.area_after, greedy.area_after);
    }

    #[test]
    fn trim_outcome_arithmetic_is_consistent(msa in arb_gapped_msa()) {
        let out = trim_msa(&msa, &TrimConfig::default());
        prop_assert_eq!(out.rows_dropped(), out.dropped.len());
        prop_assert_eq!(out.msa.num_rows(), msa.num_rows() - out.rows_dropped());
        prop_assert_eq!(out.area_before, (msa.num_rows() * out.free_cols_before) as u64);
        prop_assert_eq!(out.area_after, (out.msa.num_rows() * out.free_cols_after) as u64);
        prop_assert_eq!(out.cols_gained(), out.free_cols_after - out.free_cols_before);
        // The per-row marginal gains decompose the total exactly.
        let total: i64 = out.dropped.iter().map(|d| d.area_gain).sum();
        prop_assert_eq!(total, out.area_after as i64 - out.area_before as i64);
    }

    #[test]
    fn fasta_write_roundtrips_arbitrary_alignments(msa in arb_gapped_msa()) {
        let text = fasta::write_alignment(&msa);
        let parsed = fasta::parse_alignment(&text).unwrap();
        prop_assert_eq!(parsed.ids(), msa.ids());
        prop_assert_eq!(parsed.rows(), msa.rows());
        // Writing the re-parsed alignment is a fixpoint.
        prop_assert_eq!(fasta::write_alignment(&parsed), text);
    }

    #[test]
    fn fasta_write_roundtrips_arbitrary_sequences(seqs in arb_sequences()) {
        let text = fasta::write(&seqs);
        let parsed = fasta::parse(&text).unwrap();
        prop_assert_eq!(parsed, seqs);
    }
}
