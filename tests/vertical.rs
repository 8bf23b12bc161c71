//! Integration invariants of the vertical (length-wise) decomposition:
//! lossless block cutting, well-formed glue output, zero-anchor byte
//! parity, and fewer DP cells than whole-length at reference quality.

use proptest::prelude::*;
use sample_align_d::prelude::*;

/// A family of related sequences built from one random base row with
/// light per-row point substitutions — long conserved stretches, so the
/// anchor scan has something to find (rose families are too slow to
/// regenerate per proptest case). Each edit encodes `(position, code)` as
/// `position * 20 + code`.
fn related_family(base: &[u8], edit_sets: &[Vec<usize>]) -> Vec<Sequence> {
    edit_sets
        .iter()
        .enumerate()
        .map(|(i, edits)| {
            let mut codes = base.to_vec();
            for &e in edits {
                let at = (e / 20) % codes.len();
                codes[at] = (e % 20) as u8;
            }
            Sequence::from_codes(format!("s{i}"), codes)
        })
        .collect()
}

/// Strategy: arbitrary unrelated sequences (anchors unlikely but allowed).
fn arb_any_family() -> impl Strategy<Value = Vec<Sequence>> {
    prop::collection::vec(prop::collection::vec(0u8..20, 10..80), 2..8).prop_map(|codes| {
        codes
            .into_iter()
            .enumerate()
            .map(|(i, c)| Sequence::from_codes(format!("q{i}"), c))
            .collect()
    })
}

fn small_vcfg(max_block: usize, seam_window: usize) -> VerticalConfig {
    VerticalConfig {
        min_anchor_len: 6,
        min_anchor_spacing: 16,
        max_block_len: max_block,
        seam_window,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Block cutting is lossless: concatenating each input's block
    /// slices reproduces the input byte-for-byte, for any input and any
    /// block-length cap.
    #[test]
    fn block_cutting_is_lossless(seqs in arb_any_family(), cap in 1usize..300) {
        let vcfg = small_vcfg(cap, 4);
        let mut work = bioseq::Work::ZERO;
        let plan = sad_core::decomp::plan_blocks(&seqs, &vcfg, &mut work);
        prop_assert!(!plan.blocks.is_empty());
        prop_assert_eq!(plan.anchors.len() + 1, plan.blocks.len());
        for (i, seq) in seqs.iter().enumerate() {
            let mut glued: Vec<u8> = Vec::new();
            for block in &plan.blocks {
                prop_assert_eq!(&block[i].id, &seq.id);
                glued.extend_from_slice(block[i].codes());
            }
            prop_assert_eq!(glued.as_slice(), seq.codes());
        }
    }

    /// (b) Glue output is a well-formed MSA: equal row lengths, rows
    /// ungapping to the inputs, and no all-gap columns surviving the seam
    /// refinement.
    #[test]
    fn glued_alignment_is_well_formed(
        base in prop::collection::vec(0u8..20, 120..260),
        edit_sets in prop::collection::vec(
            prop::collection::vec(0usize..20_000, 0..12), 2..6),
        seam in 0usize..12,
    ) {
        let seqs = related_family(&base, &edit_sets);
        let cfg = SadConfig::default().with_vertical(small_vcfg(60, seam));
        let report = Aligner::new(cfg).run(&seqs).expect("valid input");
        prop_assert!(report.msa.validate().is_ok());
        prop_assert_eq!(report.msa.num_rows(), seqs.len());
        for (i, seq) in seqs.iter().enumerate() {
            let ungapped = report.msa.ungapped(i);
            prop_assert_eq!(ungapped.codes(), seq.codes());
        }
        let gap = bioseq::alphabet::GAP_CODE;
        for c in 0..report.msa.num_cols() {
            prop_assert!(
                (0..report.msa.num_rows()).any(|r| report.msa.row(r)[c] != gap),
                "all-gap column {} in glued output", c
            );
        }
        let v = report.vertical.expect("vertical census recorded");
        prop_assert_eq!(v.anchors + 1, v.blocks());
    }

    /// (c) Vertical mode with zero anchors is byte-identical to vertical
    /// off, on every backend.
    #[test]
    fn zero_anchors_mean_byte_parity(seqs in arb_any_family(), threads in 1usize..4) {
        // An anchor k-mer longer than every sequence can never match.
        let unanchorable =
            VerticalConfig { min_anchor_len: 512, ..VerticalConfig::default() };
        for backend in [
            Backend::Sequential,
            Backend::Rayon { threads },
            Backend::Distributed(VirtualCluster::new(threads, CostModel::beowulf_2008())),
        ] {
            let aligner = |cfg: SadConfig| Aligner::new(cfg).backend(backend.clone());
            let plain = aligner(SadConfig::default()).run(&seqs).expect("valid input");
            let vert = aligner(SadConfig::default().with_vertical(unanchorable))
                .run(&seqs)
                .expect("valid input");
            prop_assert_eq!(&plain.msa, &vert.msa, "{}", backend.name());
            let v = vert.vertical.expect("census recorded even when degraded");
            prop_assert_eq!((v.anchors, v.blocks(), v.seam_windows), (0, 1, 0));
            prop_assert_eq!(v.block_cols, vec![vert.msa.num_cols()]);
        }
    }
}

/// The decomposition contract on an anchored 8×L600 family under a
/// full-matrix band (the honest comparison: adaptive banding shrinks both
/// bills): vertical cuts into blocks, fills strictly fewer DP cells than
/// the whole-length run, and keeps reference Q within 0.05 of it.
#[test]
fn vertical_fills_fewer_cells_than_whole_length_at_reference_quality() {
    let fam = Family::generate(&FamilyConfig {
        n_seqs: 8,
        avg_len: 600,
        relatedness: 120.0,
        indel_rate: 0.01,
        seed: 0x61,
        ..Default::default()
    });
    let full = SadConfig::default().with_band_policy(BandPolicy::Full);
    let vcfg = VerticalConfig { max_block_len: 256, ..Default::default() };
    let whole = Aligner::new(full.clone()).run(&fam.seqs).expect("valid input");
    let vert = Aligner::new(full.with_vertical(vcfg)).run(&fam.seqs).expect("valid input");
    let q = |msa: &bioseq::Msa| {
        bioseq::compare::q_score_msa(msa, &fam.reference).expect("same rows as truth")
    };

    let blocks = vert.vertical.as_ref().expect("vertical census recorded").blocks();
    assert!(blocks >= 2, "an anchored family at relatedness 120 must cut into blocks: {blocks}");
    assert!(
        vert.work.dp_cells < whole.work.dp_cells,
        "vertical must fill strictly fewer DP cells: {} vs whole-length {}",
        vert.work.dp_cells,
        whole.work.dp_cells
    );
    let (q_vert, q_whole) = (q(&vert.msa), q(&whole.msa));
    assert!(
        q_vert >= q_whole - 0.05,
        "vertical glue lost too much quality: Q {q_vert:.4} vs whole-length {q_whole:.4}"
    );
}
