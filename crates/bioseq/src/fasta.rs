//! Minimal FASTA parsing and serialisation.
//!
//! Supports the subset of FASTA the pipeline needs: `>` headers (first
//! whitespace-delimited token is the id), wrapped sequence lines, and both
//! gapped (alignment) and ungapped records.

use crate::alphabet::{char_to_code, code_to_char, GAP_CODE};
use crate::msa::Msa;
use crate::sequence::{Sequence, SequenceError};
use std::fmt::Write as _;

/// Error while parsing FASTA text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FastaError {
    /// Sequence data appeared before the first `>` header.
    DataBeforeHeader {
        /// 1-based line number.
        line: usize,
    },
    /// A record contained an invalid residue.
    BadSequence {
        /// Record identifier.
        id: String,
        /// Underlying sequence error.
        source: SequenceError,
    },
    /// A record contained no residues at all.
    EmptyRecord {
        /// Record identifier.
        id: String,
    },
    /// Gapped records had inconsistent lengths (for alignment parsing).
    RaggedAlignment {
        /// Expected number of columns.
        expected: usize,
        /// Actual number of columns in the offending record.
        got: usize,
        /// Record identifier.
        id: String,
    },
    /// Alignment text held no records at all (an alignment needs a row).
    EmptyAlignment,
    /// A gapped record held only gap characters (an alignment row needs
    /// at least one residue).
    AllGapRow {
        /// Record identifier.
        id: String,
    },
}

impl std::fmt::Display for FastaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FastaError::DataBeforeHeader { line } => {
                write!(f, "sequence data before first header at line {line}")
            }
            FastaError::BadSequence { id, source } => {
                write!(f, "record {id}: {source}")
            }
            FastaError::EmptyRecord { id } => write!(f, "record {id} is empty"),
            FastaError::RaggedAlignment { expected, got, id } => {
                write!(f, "record {id} has {got} columns, expected {expected} (ragged alignment)")
            }
            FastaError::EmptyAlignment => write!(f, "no records (an alignment needs a row)"),
            FastaError::AllGapRow { id } => write!(f, "record {id} is entirely gaps"),
        }
    }
}

impl std::error::Error for FastaError {}

/// Parse ungapped FASTA text into sequences. Gap characters are rejected.
pub fn parse(text: &str) -> Result<Vec<Sequence>, FastaError> {
    Reader::new(text.as_bytes()).map(|r| r.map_err(text_error)).collect()
}

/// Parse gapped FASTA text into an alignment. All records must have the same
/// number of columns.
pub fn parse_alignment(text: &str) -> Result<Msa, FastaError> {
    let mut records = Records::new(text.as_bytes());
    let mut ids = Vec::new();
    let mut rows: Vec<Vec<u8>> = Vec::new();
    let mut width: Option<usize> = None;
    while let Some((id, body)) = records.next_record().map_err(text_error)? {
        let mut row = Vec::with_capacity(body.len());
        for (pos, ch) in body.chars().enumerate() {
            if ch.is_whitespace() {
                continue;
            }
            match char_to_code(ch) {
                Some(code) => row.push(code),
                None => {
                    return Err(FastaError::BadSequence {
                        id,
                        source: SequenceError::InvalidResidue { ch, pos },
                    })
                }
            }
        }
        if row.is_empty() {
            return Err(FastaError::EmptyRecord { id });
        }
        if row.iter().all(|&c| c == GAP_CODE) {
            return Err(FastaError::AllGapRow { id });
        }
        match width {
            None => width = Some(row.len()),
            Some(w) if w != row.len() => {
                return Err(FastaError::RaggedAlignment { expected: w, got: row.len(), id })
            }
            _ => {}
        }
        ids.push(id);
        rows.push(row);
    }
    if rows.is_empty() {
        return Err(FastaError::EmptyAlignment);
    }
    Ok(Msa::from_rows(ids, rows))
}

/// In-memory text cannot fail to read: a `&str` is UTF-8 and splitting it
/// at `\n` keeps every line UTF-8.
fn text_error(e: ReadError) -> FastaError {
    match e {
        ReadError::Parse(e) => e,
        ReadError::Io(e) => unreachable!("reading in-memory text failed: {e}"),
    }
}

/// Error from the streaming [`Reader`].
///
/// Unlike [`FastaError`] this cannot be `Clone`/`Eq` because it carries the
/// underlying [`std::io::Error`] when the byte source itself fails (which
/// includes non-UTF-8 bytes, surfaced by `read_line` as
/// [`std::io::ErrorKind::InvalidData`]).
#[derive(Debug)]
pub enum ReadError {
    /// The underlying reader failed (or produced non-UTF-8 bytes).
    Io(std::io::Error),
    /// The FASTA text itself was malformed.
    Parse(FastaError),
}

impl ReadError {
    /// Whether this error means the input bytes were not UTF-8 text.
    pub fn is_not_utf8(&self) -> bool {
        matches!(self, ReadError::Io(e) if e.kind() == std::io::ErrorKind::InvalidData)
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) if self.is_not_utf8() => {
                write!(f, "input is not UTF-8 text ({e})")
            }
            ReadError::Io(e) => write!(f, "{e}"),
            ReadError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadError::Io(e) => Some(e),
            ReadError::Parse(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> ReadError {
        ReadError::Io(e)
    }
}

/// The one FASTA record splitter, under [`Reader`], [`parse`] and
/// [`parse_alignment`]: yields `(id, body)` one record at a time.
/// Trailing whitespace (including CRLF endings) is trimmed per line, blank
/// lines are skipped, the id is the first whitespace-delimited header
/// token, data before the first header is an error, and a final record
/// without a trailing newline still ends.
#[derive(Debug)]
struct Records<R> {
    inner: R,
    /// Record under construction: `(id, body-so-far)`.
    pending: Option<(String, String)>,
    /// The line being read, reused across lines.
    line: String,
    /// 1-based number of the last line read.
    lineno: usize,
}

impl<R: std::io::BufRead> Records<R> {
    fn new(inner: R) -> Records<R> {
        Records { inner, pending: None, line: String::new(), lineno: 0 }
    }

    fn next_record(&mut self) -> Result<Option<(String, String)>, ReadError> {
        loop {
            self.line.clear();
            if self.inner.read_line(&mut self.line)? == 0 {
                return Ok(self.pending.take());
            }
            self.lineno += 1;
            let trimmed = self.line.trim_end();
            if trimmed.is_empty() {
                continue;
            }
            if let Some(header) = trimmed.strip_prefix('>') {
                let id = header.split_whitespace().next().unwrap_or("").to_string();
                if let Some(record) = self.pending.replace((id, String::new())) {
                    return Ok(Some(record));
                }
            } else {
                match self.pending.as_mut() {
                    Some((_, body)) => body.push_str(trimmed),
                    None => {
                        let line = self.lineno;
                        return Err(ReadError::Parse(FastaError::DataBeforeHeader { line }));
                    }
                }
            }
        }
    }
}

/// Streaming ungapped-FASTA reader over any [`std::io::BufRead`].
///
/// Yields one [`Sequence`] per record, holding at most a single record in
/// memory at a time — a 50k-read input never materialises as one giant
/// `String` the way [`parse`] requires. [`parse`] and [`parse_alignment`]
/// split records with the same code, so the record rules are shared:
/// trailing whitespace (including CRLF endings) is trimmed per line, blank
/// lines are skipped, the id is the first whitespace-delimited header
/// token, data before the first header is an error, and a final record
/// without a trailing newline still parses.
///
/// After the first error the iterator fuses and yields nothing further.
///
/// ```
/// use bioseq::fasta::Reader;
/// let input = b">a desc\nMKV\nLAW\n>b\nMKIL";
/// let seqs: Vec<_> = Reader::new(&input[..]).collect::<Result<_, _>>().unwrap();
/// assert_eq!(seqs[0].id, "a");
/// assert_eq!(seqs[0].to_letters(), "MKVLAW");
/// assert_eq!(seqs[1].to_letters(), "MKIL");
/// ```
#[derive(Debug)]
pub struct Reader<R> {
    records: Records<R>,
    done: bool,
}

impl<R: std::io::BufRead> Reader<R> {
    /// Wrap a buffered byte source.
    pub fn new(inner: R) -> Reader<R> {
        Reader { records: Records::new(inner), done: false }
    }
}

impl<R: std::io::BufRead> Iterator for Reader<R> {
    type Item = Result<Sequence, ReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let item = match self.records.next_record() {
            Ok(Some((id, body))) => Sequence::from_str(id.clone(), &body)
                .map_err(|source| ReadError::Parse(FastaError::BadSequence { id, source })),
            Ok(None) => {
                self.done = true;
                return None;
            }
            Err(e) => Err(e),
        };
        self.done = item.is_err();
        Some(item)
    }
}

/// Open a FASTA file for streaming: a [`Reader`] over a buffered file.
pub fn open(path: &std::path::Path) -> std::io::Result<Reader<std::io::BufReader<std::fs::File>>> {
    Ok(Reader::new(std::io::BufReader::new(std::fs::File::open(path)?)))
}

/// Serialise sequences as FASTA with 60-column wrapping.
pub fn write(seqs: &[Sequence]) -> String {
    let mut out = String::new();
    for s in seqs {
        let _ = writeln!(out, ">{}", s.id);
        wrap_into(&mut out, &s.to_letters());
    }
    out
}

/// Serialise an alignment as gapped FASTA with 60-column wrapping.
pub fn write_alignment(msa: &Msa) -> String {
    let mut out = String::new();
    for i in 0..msa.num_rows() {
        let _ = writeln!(out, ">{}", msa.ids()[i]);
        let letters: String = msa.row(i).iter().map(|&c| code_to_char(c)).collect();
        wrap_into(&mut out, &letters);
    }
    out
}

fn wrap_into(out: &mut String, letters: &str) {
    let bytes = letters.as_bytes();
    if bytes.is_empty() {
        // `chunks(60)` yields nothing for an empty body, which would glue
        // the header straight onto the next record's header. Emit one
        // blank body line so every record owns at least one line.
        out.push('\n');
        return;
    }
    for chunk in bytes.chunks(60) {
        out.push_str(std::str::from_utf8(chunk).expect("ASCII"));
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_two_records() {
        let text = ">a desc here\nMKVL\nAW\n>b\nMKIL\n";
        let seqs = parse(text).unwrap();
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].id, "a");
        assert_eq!(seqs[0].to_letters(), "MKVLAW");
        assert_eq!(seqs[1].to_letters(), "MKIL");
    }

    #[test]
    fn roundtrip() {
        let text = ">a\nMKVLAW\n>b\nMKIL\n";
        let seqs = parse(text).unwrap();
        let out = write(&seqs);
        let again = parse(&out).unwrap();
        assert_eq!(seqs, again);
    }

    #[test]
    fn wrapping_at_60() {
        let long = "M".repeat(150);
        let seqs = parse(&format!(">x\n{long}\n")).unwrap();
        let out = write(&seqs);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1 + 3); // header + 60 + 60 + 30
        assert_eq!(lines[1].len(), 60);
        assert_eq!(lines[3].len(), 30);
    }

    #[test]
    fn zero_length_record_still_owns_a_body_line() {
        // `chunks(60)` yields nothing for an empty body; without the
        // explicit blank line the header would glue straight onto the
        // next record's header and the text would stop round-tripping.
        let mut out = String::new();
        wrap_into(&mut out, "");
        assert_eq!(out, "\n", "an empty body writes exactly one blank line");
        // A record after an empty one keeps its own header line.
        let mut text = String::from(">empty\n");
        wrap_into(&mut text, "");
        text.push_str(">b\n");
        wrap_into(&mut text, "MKVL");
        assert_eq!(text, ">empty\n\n>b\nMKVL\n");
        // Both parsers see the same two records: the empty one is
        // rejected as empty (never silently merged into its neighbour),
        // and the healthy one survives untouched.
        assert!(matches!(
            parse(&text),
            Err(FastaError::BadSequence { ref id, source: SequenceError::Empty }) if id == "empty"
        ));
        assert!(matches!(
            parse_alignment(&text),
            Err(FastaError::EmptyRecord { ref id }) if id == "empty"
        ));
    }

    #[test]
    fn data_before_header_rejected() {
        assert!(matches!(parse("MKVL\n>a\nMK\n"), Err(FastaError::DataBeforeHeader { line: 1 })));
    }

    #[test]
    fn gapped_alignment_parses() {
        let text = ">a\nMK-VL\n>b\nMKI-L\n";
        let msa = parse_alignment(text).unwrap();
        assert_eq!(msa.num_rows(), 2);
        assert_eq!(msa.num_cols(), 5);
    }

    #[test]
    fn ragged_alignment_rejected() {
        let text = ">a\nMK-VL\n>b\nMKIL\n";
        assert!(matches!(
            parse_alignment(text),
            Err(FastaError::RaggedAlignment { expected: 5, got: 4, .. })
        ));
    }

    #[test]
    fn empty_alignment_is_a_typed_error() {
        assert_eq!(parse_alignment(""), Err(FastaError::EmptyAlignment));
        assert_eq!(parse_alignment("\n  \n"), Err(FastaError::EmptyAlignment));
    }

    #[test]
    fn all_gap_row_is_a_typed_error() {
        let err = parse_alignment(">a\n---\n>b\nMKV\n").unwrap_err();
        assert_eq!(err, FastaError::AllGapRow { id: "a".into() });
        assert!(err.to_string().contains("entirely gaps"));
    }

    #[test]
    fn alignment_roundtrip() {
        let text = ">a\nMK-VL\n>b\nMKI-L\n";
        let msa = parse_alignment(text).unwrap();
        let out = write_alignment(&msa);
        let again = parse_alignment(&out).unwrap();
        assert_eq!(msa.rows(), again.rows());
    }

    #[test]
    fn gap_in_ungapped_rejected() {
        assert!(parse(">a\nMK-VL\n").is_err());
    }

    #[test]
    fn empty_input_ok() {
        assert!(parse("").unwrap().is_empty());
    }

    /// Collect the streaming reader over in-memory bytes, mapping its
    /// parse errors back to `FastaError` so results compare directly
    /// against `parse`.
    fn stream(text: &str) -> Result<Vec<Sequence>, FastaError> {
        Reader::new(text.as_bytes())
            .map(|r| {
                r.map_err(|e| match e {
                    ReadError::Parse(p) => p,
                    ReadError::Io(io) => panic!("in-memory source cannot fail: {io}"),
                })
            })
            .collect()
    }

    #[test]
    fn reader_matches_parse_on_awkward_inputs() {
        // CRLF endings, blank lines, multi-line bodies, descriptions,
        // missing trailing newline, empty input, lone header.
        for text in [
            "",
            ">a\nMKVL\n",
            ">a desc here\nMKVL\nAW\n>b\nMKIL\n",
            ">a\r\nMKVL\r\nAW\r\n>b\r\nMKIL\r\n",
            "\n\n>a\n\nMKVL\n\n\n>b\nMK\nIL\n\n",
            ">a\nMKVL\n>b\nMKIL",
            ">only-header\n",
            ">x\n  \nMK\n",
        ] {
            assert_eq!(stream(text), parse(text), "parity on {text:?}");
        }
    }

    #[test]
    fn reader_matches_parse_on_errors() {
        // Data before the first header, with the same 1-based line number.
        for text in ["MKVL\n>a\nMK\n", "\n\nMKVL\n>a\nMK\n", ">a\nMK\n>b\nMK-L\n>c\nMK\n"] {
            assert_eq!(stream(text), parse(text), "error parity on {text:?}");
        }
    }

    #[test]
    fn reader_fuses_after_error() {
        let mut r = Reader::new(&b"junk\n>a\nMKVL\n"[..]);
        assert!(r.next().unwrap().is_err());
        assert!(r.next().is_none(), "reader yields nothing after an error");
    }

    #[test]
    fn reader_surfaces_non_utf8_as_io_invalid_data() {
        let bytes: &[u8] = b">a\nMK\xFF\xFEVL\n";
        let errs: Vec<ReadError> = Reader::new(bytes).filter_map(Result::err).collect::<Vec<_>>();
        assert_eq!(errs.len(), 1);
        assert!(errs[0].is_not_utf8(), "{:?}", errs[0]);
        assert!(errs[0].to_string().contains("not UTF-8"), "{}", errs[0]);
    }

    #[test]
    fn open_streams_a_real_file() {
        let dir = std::env::temp_dir().join(format!("bioseq-open-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("two.fa");
        std::fs::write(&path, ">a\nMKVL\n>b\nMKIL\n").unwrap();
        let seqs: Vec<Sequence> =
            open(&path).unwrap().collect::<Result<_, _>>().expect("file parses");
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[1].to_letters(), "MKIL");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_write_read_is_identity_over_varied_records() {
        // Deterministic "awkward" corpus: every residue code, lengths that
        // straddle the 60-column wrap, ids with descriptions to strip.
        let letters = "ACDEFGHIKLMNPQRSTVWYX";
        let mut text = String::new();
        for (i, len) in [1usize, 59, 60, 61, 120, 137, 233].iter().enumerate() {
            let _ = writeln!(text, ">rec{i} some description {i}");
            for pos in 0..*len {
                let c = letters.as_bytes()[(pos * 7 + i * 13) % letters.len()] as char;
                text.push(c);
                // Sprinkle in mid-record line breaks of ragged width.
                if pos % 47 == 46 {
                    text.push('\n');
                }
            }
            text.push('\n');
        }
        let first = parse(&text).unwrap();
        assert_eq!(first.len(), 7);
        let written = write(&first);
        let second = parse(&written).unwrap();
        assert_eq!(first, second, "read -> write -> read must be the identity");
        // And serialisation is a fixpoint: writing the re-read set changes
        // nothing, so repeated round-trips are stable forever.
        assert_eq!(written, write(&second));
    }

    #[test]
    fn alignment_read_write_read_is_identity_with_gap_structure() {
        let mut text = String::new();
        // 5 rows x 130 columns with systematic gap patterns crossing the
        // wrap boundary, including leading/trailing gaps and an all-X row.
        for row in 0..5usize {
            let _ = writeln!(text, ">row{row} trailing words ignored");
            for col in 0..130usize {
                let ch = if (col + row) % 4 == 0 {
                    '-'
                } else if row == 3 {
                    'X'
                } else {
                    "ACDEFGHIKLMNPQRSTVWY".as_bytes()[(col + row * 3) % 20] as char
                };
                text.push(ch);
            }
            text.push('\n');
        }
        let first = parse_alignment(&text).unwrap();
        assert_eq!((first.num_rows(), first.num_cols()), (5, 130));
        let written = write_alignment(&first);
        let second = parse_alignment(&written).unwrap();
        assert_eq!(first.ids(), second.ids());
        assert_eq!(first.rows(), second.rows());
        assert_eq!(written, write_alignment(&second), "serialised form is a fixpoint");
    }
}
