//! Quality scoring for recovered *read* alignments — the Pyro-Align
//! counterpart of the PREFAB harness.
//!
//! A simulated [`ReadSet`] knows its own reference alignment, but only
//! sparsely: materialising the dense truth of 50k reads would cost
//! gigabytes. This module therefore scores a recovered MSA the way PREFAB
//! scores structure pairs — over *pairs* of reads. A deterministic sample
//! of truth-overlapping pairs is drawn, each pair's exact two-row
//! reference alignment is projected from the sparse truth
//! ([`ReadSet::true_pair`]), and the recovered rows are scored with the
//! standard `Q` measure. Cost is O(sample), independent of the read
//! count, so the same gate runs on a 60-read unit test and a 50k-read
//! release check.

use bioseq::compare::q_score_pair;
use bioseq::Msa;
use rosegen::ReadSet;
use std::collections::HashMap;

/// How far apart (in read index) two reads may be and still be tried as a
/// pair. Reads are emitted source-row by source-row, so near indices come
/// from the same region and overlap often; scanning a small window keeps
/// pair discovery linear in the read count.
const PAIR_WINDOW: usize = 8;

/// Pairs must share at least this many reference columns to be scored —
/// tiny overlaps make `Q` noisy.
const MIN_OVERLAP: usize = 10;

/// Mean `Q` of a recovered read alignment against the set's sparse truth,
/// over a deterministic sample of at most `max_pairs` overlapping read
/// pairs. Rows are matched to reads by identifier, so bucketing backends
/// that reorder rows score correctly.
///
/// Returns `None` when no scorable pair exists (no overlapping reads, or
/// reads missing from the MSA).
pub fn mean_read_pair_q(set: &ReadSet, msa: &Msa, max_pairs: usize) -> Option<f64> {
    let row_of: HashMap<&str, usize> =
        msa.ids().iter().enumerate().map(|(row, id)| (id.as_str(), row)).collect();
    let n = set.len();
    let mut sum = 0.0;
    let mut scored = 0usize;
    // Stride the pair scan so the sample spreads over the whole set
    // instead of exhausting `max_pairs` on its first reads.
    let stride = (n / max_pairs.max(1)).max(1);
    'scan: for i in (0..n).step_by(stride) {
        for j in i + 1..(i + 1 + PAIR_WINDOW).min(n) {
            if set.overlap(i, j) < MIN_OVERLAP {
                continue;
            }
            let (Some(&ra), Some(&rb)) =
                (row_of.get(set.reads[i].id.as_str()), row_of.get(set.reads[j].id.as_str()))
            else {
                continue;
            };
            let (ref_a, ref_b) = set.true_pair(i, j);
            if let Some(q) = q_score_pair(msa.row(ra), msa.row(rb), &ref_a, &ref_b) {
                sum += q;
                scored += 1;
                if scored >= max_pairs {
                    break 'scan;
                }
            }
            break; // one pair per anchor read keeps the sample spread out
        }
    }
    (scored > 0).then(|| sum / scored as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use align::{MsaEngine, MuscleLite};
    use rosegen::{Family, FamilyConfig, ReadSimConfig};

    fn read_set(error_rate: f64, total: usize) -> ReadSet {
        let fam = Family::generate(&FamilyConfig {
            n_seqs: 2,
            avg_len: 160,
            relatedness: 900.0,
            seed: 11,
            ..Default::default()
        });
        ReadSet::from_family(
            &fam,
            &ReadSimConfig {
                total_reads: Some(total),
                read_len: 60,
                len_sd: 5.0,
                error_rate,
                min_len: 20,
                seed: 11,
                ..Default::default()
            },
        )
    }

    #[test]
    fn truth_scores_itself_perfectly() {
        let set = read_set(0.02, 40);
        let q = mean_read_pair_q(&set, &set.reference_msa(), 50).expect("overlapping pairs");
        assert!((q - 1.0).abs() < 1e-12, "reference vs itself must be Q = 1, got {q}");
    }

    #[test]
    fn recovered_alignments_pass_the_gate_at_several_error_rates() {
        // The gate the CLI applies: aligning simulated reads must recover
        // most true residue pairs, degrading gracefully as the
        // homopolymer error rate grows.
        for (error_rate, floor) in [(0.0, 0.7), (0.02, 0.6), (0.05, 0.5)] {
            let set = read_set(error_rate, 30);
            let msa = MuscleLite::fast().align_with_work(&set.reads).0;
            let q = mean_read_pair_q(&set, &msa, 50)
                .unwrap_or_else(|| panic!("no scorable pairs at error rate {error_rate}"));
            assert!(q >= floor, "error rate {error_rate}: mean pair Q {q:.3} under floor {floor}");
        }
    }

    #[test]
    fn shuffled_rows_score_identically() {
        // Row order must not matter: ids, not positions, match reads.
        let set = read_set(0.01, 24);
        let msa = MuscleLite::fast().align_with_work(&set.reads).0;
        let rev_ids: Vec<String> = msa.ids().iter().rev().cloned().collect();
        let rev_rows: Vec<Vec<u8>> =
            (0..msa.num_rows()).rev().map(|i| msa.row(i).to_vec()).collect();
        let reversed = Msa::from_rows(rev_ids, rev_rows);
        assert_eq!(mean_read_pair_q(&set, &msa, 50), mean_read_pair_q(&set, &reversed, 50));
    }

    #[test]
    fn empty_overlap_yields_none() {
        // Two reads from far-apart regions of one row never overlap.
        let fam = Family::generate(&FamilyConfig {
            n_seqs: 1,
            avg_len: 400,
            seed: 3,
            ..Default::default()
        });
        let set = ReadSet::from_reference(
            &fam.reference,
            &ReadSimConfig {
                total_reads: Some(2),
                read_len: 20,
                len_sd: 0.0,
                error_rate: 0.0,
                min_len: 10,
                seed: 5,
                ..Default::default()
            },
        );
        if set.overlap(0, 1) < MIN_OVERLAP {
            assert_eq!(mean_read_pair_q(&set, &set.reference_msa(), 10), None);
        }
    }
}
