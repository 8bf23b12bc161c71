//! Output checking: what every sample's alignment must satisfy before
//! its time counts.

use bioseq::{fasta, Msa, Sequence};
use std::collections::HashMap;

/// The alignment body of `sad` output: `;` comment lines carry wall-clock
/// figures that differ between runs, so they are dropped before the body
/// is parsed or compared.
pub fn body(text: &str) -> String {
    text.lines().filter(|l| !l.starts_with(';')).flat_map(|l| [l, "\n"]).collect()
}

/// Check one aligned FASTA `body` against the sequences that went in: it
/// parses, all rows have one width, there is one row per input sequence,
/// and each row with its gaps removed is the input sequence of that id.
pub fn check_alignment(body: &str, input: &[Sequence]) -> Result<Msa, String> {
    // `parse_alignment` panics on text without a record.
    if !body.lines().any(|l| l.starts_with('>')) {
        return Err("output holds no FASTA record".into());
    }
    let msa = fasta::parse_alignment(body).map_err(|e| format!("output does not parse: {e}"))?;
    msa.validate().map_err(|e| format!("invalid alignment: {e}"))?;
    if msa.num_rows() != input.len() {
        return Err(format!("{} rows for {} input sequences", msa.num_rows(), input.len()));
    }
    let by_id: HashMap<&str, &Sequence> = input.iter().map(|s| (s.id.as_str(), s)).collect();
    if by_id.len() != input.len() {
        return Err("input ids are not unique".into());
    }
    let mut seen = std::collections::HashSet::new();
    for (row, id) in msa.ids().iter().enumerate() {
        let Some(want) = by_id.get(id.as_str()) else {
            return Err(format!("row {row} has id {id:?}, which is not in the input"));
        };
        if !seen.insert(id.as_str()) {
            return Err(format!("id {id:?} appears in two rows"));
        }
        if msa.ungapped(row).codes() != want.codes() {
            return Err(format!("row {id:?} without its gaps differs from the input sequence"));
        }
    }
    Ok(msa)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> Vec<Sequence> {
        vec![Sequence::from_str("a", "MKVLAW").unwrap(), Sequence::from_str("b", "MKLAW").unwrap()]
    }

    #[test]
    fn a_faithful_alignment_passes() {
        let out = "; backend rayon: 2 sequences\n>a\nMKVLAW\n>b\nMK-LAW\n";
        let msa = check_alignment(&body(out), &input()).unwrap();
        assert_eq!((msa.num_rows(), msa.num_cols()), (2, 6));
    }

    #[test]
    fn a_corrupted_row_fails() {
        // One residue of row b changed: the widths still agree.
        let err = check_alignment(">a\nMKVLAW\n>b\nMK-LAY\n", &input()).unwrap_err();
        assert!(err.contains("differs from the input"), "{err}");
    }

    #[test]
    fn ragged_missing_and_foreign_rows_fail() {
        assert!(check_alignment(">a\nMKVLAW\n>b\nMKLAW\n", &input())
            .unwrap_err()
            .contains("parse"));
        assert!(check_alignment(">a\nMKVLAW\n", &input()).unwrap_err().contains("1 rows"));
        assert!(check_alignment(">a\nMKVLAW\n>c\nMK-LAW\n", &input())
            .unwrap_err()
            .contains("not in the input"));
        assert!(check_alignment(">a\nMKVLAW\n>a\nMKVLAW\n", &input())
            .unwrap_err()
            .contains("two rows"));
        assert!(check_alignment("", &input()).unwrap_err().contains("no FASTA record"));
        assert!(check_alignment("error: boom\n", &input()).is_err());
    }

    #[test]
    fn body_drops_only_comment_lines() {
        assert_eq!(body("; 0.5 s\n>a\nMK\n; x\n"), ">a\nMK\n");
    }
}
