//! Distance matrices between sequences: fast k-mer distances (MUSCLE
//! stage 1), Kimura-corrected identity distances from an existing alignment
//! (MUSCLE stage 2), and full pairwise-alignment distances (CLUSTALW).

use crate::dp::{BandPolicy, DpArena, DpOptions};
use crate::pairwise::alignment_distance_with;
use bioseq::kmer::KmerProfile;
use bioseq::msa::row_identity;
use bioseq::{CompressedAlphabet, GapPenalties, Msa, Sequence, SubstMatrix, Work};
use phylo::DistMatrix;
use rayon::prelude::*;

/// Build k-mer profiles for a set of sequences. Sequences shorter than `k`
/// yield `None` (their distances default to the maximum, 1.0).
pub fn kmer_profiles(
    seqs: &[Sequence],
    k: usize,
    alphabet: CompressedAlphabet,
    work: &mut Work,
) -> Vec<Option<KmerProfile>> {
    let profiles: Vec<Option<KmerProfile>> =
        seqs.par_iter().map(|s| KmerProfile::build(s, k, alphabet)).collect();
    work.seq_bytes += seqs.iter().map(|s| s.len() as u64).sum::<u64>();
    profiles
}

/// Pairwise k-mer distance matrix (`1 − F`). `O(n²·L)` via sorted-profile
/// merges, parallelised over rows.
pub fn kmer_distance_matrix(
    seqs: &[Sequence],
    k: usize,
    alphabet: CompressedAlphabet,
    work: &mut Work,
) -> DistMatrix {
    let profiles = kmer_profiles(seqs, k, alphabet, work);
    let n = seqs.len();
    // Compute each strict-lower-triangle row in parallel; track work.
    let rows: Vec<(Vec<f64>, Work)> = (1..n)
        .into_par_iter()
        .map(|i| {
            let mut w = Work::ZERO;
            let row: Vec<f64> = (0..i)
                .map(|j| match (&profiles[i], &profiles[j]) {
                    (Some(a), Some(b)) => 1.0 - a.similarity_counting(b, &mut w),
                    _ => 1.0,
                })
                .collect();
            (row, w)
        })
        .collect();
    let mut m = DistMatrix::zeros(n);
    for (i, (row, w)) in rows.into_iter().enumerate() {
        let i = i + 1;
        for (j, v) in row.into_iter().enumerate() {
            m.set(i, j, v);
        }
        *work += w;
    }
    m
}

/// Kimura (1983) correction of a fractional identity into an evolutionary
/// distance: `d = −ln(1 − D − D²/5)` for observed difference `D`, capped at
/// `MAX_KIMURA` for saturated pairs (MUSCLE's convention).
pub fn kimura_correction(fractional_identity: f64) -> f64 {
    /// Saturation cap for highly diverged pairs.
    const MAX_KIMURA: f64 = 10.0;
    let d = (1.0 - fractional_identity).clamp(0.0, 1.0);
    let arg = 1.0 - d - d * d / 5.0;
    if arg <= 1e-9 {
        MAX_KIMURA
    } else {
        (-arg.ln()).min(MAX_KIMURA)
    }
}

/// Kimura-corrected distance matrix from the pairwise identities of an
/// existing alignment (MUSCLE's improved stage-2 distance).
pub fn kimura_from_msa(msa: &Msa, work: &mut Work) -> DistMatrix {
    let n = msa.num_rows();
    let rows: Vec<Vec<f64>> = (1..n)
        .into_par_iter()
        .map(|i| (0..i).map(|j| kimura_correction(row_identity(msa.row(i), msa.row(j)))).collect())
        .collect();
    let mut m = DistMatrix::zeros(n);
    for (i, row) in rows.into_iter().enumerate() {
        let i = i + 1;
        for (j, v) in row.into_iter().enumerate() {
            m.set(i, j, v);
        }
    }
    work.col_ops += (n * n / 2) as u64 * msa.num_cols() as u64;
    m
}

/// Full pairwise-global-alignment distance matrix (`1 − identity` after
/// Gotoh alignment). `O(n²·L²)` — CLUSTALW's accurate-but-slow initial
/// distances, only sensible for small `n`.
pub fn alignment_distance_matrix(
    seqs: &[Sequence],
    matrix: &SubstMatrix,
    gaps: GapPenalties,
    work: &mut Work,
) -> DistMatrix {
    alignment_distance_matrix_with(seqs, matrix, gaps, BandPolicy::Full, work)
}

/// [`alignment_distance_matrix`] under explicit [`DpOptions`]. The rows
/// run in parallel, so instead of borrowing one arena each worker reuses
/// its own [`DpArena`] across its whole row of pairwise alignments.
pub fn alignment_distance_matrix_with(
    seqs: &[Sequence],
    matrix: &SubstMatrix,
    gaps: GapPenalties,
    dp: impl Into<DpOptions>,
    work: &mut Work,
) -> DistMatrix {
    let dp = dp.into();
    let n = seqs.len();
    let rows: Vec<(Vec<f64>, Work)> = (1..n)
        .into_par_iter()
        .map(|i| {
            let mut w = Work::ZERO;
            let mut arena = DpArena::new();
            let row: Vec<f64> = (0..i)
                .map(|j| {
                    alignment_distance_with(
                        &seqs[i], &seqs[j], matrix, gaps, dp, &mut arena, &mut w,
                    )
                })
                .collect();
            (row, w)
        })
        .collect();
    let mut m = DistMatrix::zeros(n);
    for (i, (row, w)) in rows.into_iter().enumerate() {
        let i = i + 1;
        for (j, v) in row.into_iter().enumerate() {
            m.set(i, j, v);
        }
        *work += w;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(texts: &[&str]) -> Vec<Sequence> {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| Sequence::from_str(format!("s{i}"), t).unwrap())
            .collect()
    }

    #[test]
    fn kmer_matrix_zero_diag_like_behaviour() {
        let ss = seqs(&["MKVLAWGKVL", "MKVLAWGKVL", "PPPPGGPPPP"]);
        let mut w = Work::ZERO;
        let m = kmer_distance_matrix(&ss, 3, CompressedAlphabet::Identity, &mut w);
        assert!(m.get(0, 1) < 1e-12, "identical sequences at distance 0");
        assert!(m.get(0, 2) > 0.9, "unrelated sequences near distance 1");
        assert!(w.kmer_ops > 0);
    }

    #[test]
    fn kmer_matrix_symmetric_in_storage() {
        let ss = seqs(&["MKVLAW", "MKILAW", "MKILCW"]);
        let mut w = Work::ZERO;
        let m = kmer_distance_matrix(&ss, 2, CompressedAlphabet::Identity, &mut w);
        assert_eq!(m.get(0, 2), m.get(2, 0));
    }

    #[test]
    fn short_sequences_get_max_distance() {
        let ss = seqs(&["MK", "MKVLAWGKVL"]);
        let mut w = Work::ZERO;
        let m = kmer_distance_matrix(&ss, 6, CompressedAlphabet::Identity, &mut w);
        assert_eq!(m.get(0, 1), 1.0);
    }

    #[test]
    fn kimura_correction_properties() {
        assert_eq!(kimura_correction(1.0), 0.0);
        // Monotone decreasing in identity.
        let mut prev = kimura_correction(1.0);
        for id in [0.95, 0.9, 0.8, 0.7, 0.6, 0.5] {
            let d = kimura_correction(id);
            assert!(d > prev, "identity {id}");
            prev = d;
        }
        // Saturates at the cap for very low identity.
        assert_eq!(kimura_correction(0.0), 10.0);
        // For small distances, correction ≈ observed difference.
        let d = kimura_correction(0.99);
        assert!((d - 0.01).abs() < 1e-3, "d={d}");
    }

    #[test]
    fn kimura_matrix_from_msa() {
        let msa = bioseq::fasta::parse_alignment(">a\nMKVL\n>b\nMKVL\n>c\nWWWW\n").unwrap();
        let mut w = Work::ZERO;
        let m = kimura_from_msa(&msa, &mut w);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(0, 2), 10.0);
    }

    #[test]
    fn alignment_distance_matrix_small() {
        let ss = seqs(&["MKVLAW", "MKVLAW", "MKILAW"]);
        let mut w = Work::ZERO;
        let m = alignment_distance_matrix(
            &ss,
            &SubstMatrix::blosum62(),
            GapPenalties::default(),
            &mut w,
        );
        assert_eq!(m.get(0, 1), 0.0);
        assert!(m.get(0, 2) > 0.0 && m.get(0, 2) < 0.5);
        assert!(w.dp_cells > 0);
    }

    #[test]
    fn deterministic_under_parallelism() {
        let ss = seqs(&["MKVLAWGKVL", "MKILAWGKIL", "MKVLCWGKVL", "PPPPGGPPPP"]);
        let mut w1 = Work::ZERO;
        let mut w2 = Work::ZERO;
        let a = kmer_distance_matrix(&ss, 3, CompressedAlphabet::Dayhoff6, &mut w1);
        let b = kmer_distance_matrix(&ss, 3, CompressedAlphabet::Dayhoff6, &mut w2);
        assert_eq!(a, b);
        assert_eq!(w1, w2);
    }
}
