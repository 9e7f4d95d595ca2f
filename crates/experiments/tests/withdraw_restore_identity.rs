//! Metamorphic relation: withdrawing a set of modules and then restoring
//! exactly that set is the identity on the maintained state. On a scaled
//! world, with real bucket sizes, the withdrawal drops rows and columns from
//! the verdict store's bucket matrices and the restore grows them back; the
//! matrix, the reports and every substitute ranking must come back equal.

use dex_core::delta::Delta;
use dex_core::GenerationConfig;
use dex_experiments::{IncrementalPipeline, SubstituteAnswer};
use dex_modules::ModuleId;
use dex_pool::build_text_pool;
use dex_universe::scale::{build_scaled, ScalePlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

const SCALE: usize = 1_000;
const SEED: u64 = 5;

/// The matrix as its rows, each reduced to a digest: `matrix()` is
/// exactly these rows, and holding `n²` reports side by side would dominate
/// the test's memory, while per-row digests keep a mismatch locatable.
fn row_digests(engine: &IncrementalPipeline) -> BTreeMap<ModuleId, u64> {
    let mut digests = BTreeMap::new();
    for id in engine.tracked_ids() {
        if let Some(row) = engine.matrix_row(id) {
            let mut h = DefaultHasher::new();
            format!("{row:?}").hash(&mut h);
            digests.insert(id.clone(), h.finish());
        }
    }
    digests
}

fn substitutes(engine: &IncrementalPipeline) -> Vec<SubstituteAnswer> {
    engine
        .tracked_ids()
        .iter()
        .map(|id| engine.substitutes(id).expect("tracked"))
        .collect()
}

#[test]
fn withdraw_then_restore_is_the_identity() {
    let world = build_scaled(&ScalePlan::new(SCALE, SEED));
    let pool = build_text_pool(&world.universe.ontology, 4, SEED);
    let mut engine =
        IncrementalPipeline::bootstrap(world.universe, pool, GenerationConfig::default());

    let reports = engine.reports();
    let digests = row_digests(&engine);
    let answers = substitutes(&engine);

    let mut ids = engine.tracked_ids().to_vec();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut victims = Vec::new();
    for _ in 0..ids.len() / 10 {
        victims.push(ids.swap_remove(rng.gen_range(0..ids.len())));
    }
    let withdraw: Vec<Delta> = victims
        .iter()
        .map(|id| Delta::ModuleWithdraw { id: id.clone() })
        .collect();
    let down = engine.apply(&withdraw);
    assert!(
        down.dropped_pairs > 0,
        "the withdrawal must drop stored pairs"
    );
    assert_eq!(engine.available_count(), SCALE - victims.len());

    let restore: Vec<Delta> = victims
        .iter()
        .map(|id| Delta::ModuleRestore { id: id.clone() })
        .collect();
    let up = engine.apply(&restore);
    assert_eq!(up.regenerated_modules, 0, "nothing changed while withdrawn");
    assert_eq!(
        up.recomputed_pairs, down.dropped_pairs,
        "the restore recomputes exactly the pairs the withdrawal dropped"
    );
    assert_eq!(
        up.carried_forward + up.recomputed_pairs,
        down.carried_forward + down.dropped_pairs
    );

    assert_eq!(engine.reports(), reports);
    assert_eq!(row_digests(&engine), digests);
    assert_eq!(substitutes(&engine), answers);
}
