//! The paper's Fig. 2: two sets of sequences aligned independently of
//! each other are "tweaked" against the global ancestor template so they
//! can be joined into one alignment.
//!
//! Run with: `cargo run --release --example ancestor_tweak`

use align::consensus::consensus_sequence;
use align::MsaEngine;
use sad_core::ancestor::{anchor_to_ancestor, glue_anchored, glue_block_diagonal};
use sample_align_d::prelude::*;

fn main() {
    let matrix = SubstMatrix::blosum62();
    let gaps = GapPenalties::default();
    let mut work = bioseq::Work::ZERO;

    // Two buckets of related sequences, as they would land on two
    // processors after rank-based redistribution.
    let family = Family::generate(&FamilyConfig {
        n_seqs: 8,
        avg_len: 48,
        relatedness: 500.0,
        seed: 7,
        ..Default::default()
    });
    let engine = MuscleLite::fast();
    let bucket_a = engine.align_with_work(&family.seqs[..4]).0;
    let bucket_b = engine.align_with_work(&family.seqs[4..]).0;
    println!("bucket A ({} cols):", bucket_a.num_cols());
    print!("{}", bucket_a.snapshot(4, 72));
    println!("\nbucket B ({} cols):", bucket_b.num_cols());
    print!("{}", bucket_b.snapshot(4, 72));

    // Local ancestors -> global ancestor (aligned at the root processor).
    let anc_a = consensus_sequence(&bucket_a, "anc-A", &mut work);
    let anc_b = consensus_sequence(&bucket_b, "anc-B", &mut work);
    let anc_msa = engine.align_with_work(&[anc_a, anc_b]).0;
    let global_ancestor = consensus_sequence(&anc_msa, "global-ancestor", &mut work);
    println!("\nglobal ancestor: {}", global_ancestor.to_letters());

    // Naive joining (no ancestor): block-diagonal stacking.
    let naive = glue_block_diagonal(&[bucket_a.clone(), bucket_b.clone()], &mut work);
    println!(
        "\nwithout fine-tuning (block-diagonal): {} cols, SP = {}",
        naive.num_cols(),
        naive.sp_score(&matrix, gaps)
    );

    // Fig. 2's tweak: anchor each bucket to the ancestor, then glue.
    let (dp, mut arena) = (DpOptions::default(), DpArena::new());
    let (m, g) = (&matrix, gaps);
    let block_a = anchor_to_ancestor(&bucket_a, &global_ancestor, m, g, dp, &mut arena, &mut work);
    let block_b = anchor_to_ancestor(&bucket_b, &global_ancestor, m, g, dp, &mut arena, &mut work);
    let glued = glue_anchored(global_ancestor.len(), &[block_a, block_b], &mut work);
    println!(
        "with ancestor fine-tuning:            {} cols, SP = {}",
        glued.num_cols(),
        glued.sp_score(&matrix, gaps)
    );
    println!("\nglued alignment:");
    print!("{}", glued.snapshot(8, 72));

    let improvement = glued.sp_score(&matrix, gaps) - naive.sp_score(&matrix, gaps);
    println!("\nancestor template improved SP by {improvement} (cf. paper Fig. 2)");
}
