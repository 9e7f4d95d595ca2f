//! The incremental engine's correctness contract: after *any* seeded
//! sequence of deltas — pool inserts/removals, module
//! withdrawals/restorations, ontology edge additions, in any batching —
//! the maintained generation reports, matching matrix and live substitute
//! rankings are byte-identical to a cold full pipeline run over the same
//! final state. Further properties pin the same equivalence with seeded
//! transient faults injected into every module (riding on the retry layer
//! to converge) and with modules whose code panics on some inputs (contained
//! at the invoke boundary as permanent errors).

use dex_core::{GenerationConfig, MatchOutcome, MatchReport, MatchVerdict};
use dex_experiments::parallel::{generate_fleet, match_pairs_blocked, BatchConfig};
use dex_experiments::IncrementalPipeline;
use dex_modules::{
    FaultPlan, FaultyModule, FnModule, InvocationError, ModuleDescriptor, ModuleId, ModuleKind,
    Parameter, Retrier, RetryPolicy, SharedModule,
};
use dex_pool::{build_synthetic_pool, AnnotatedInstance, InstancePool};
use dex_repair::substitute_rank;
use dex_universe::Universe;
use dex_values::{StructuralType, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dex_core::delta::Delta;

/// Text-valued concepts the synthetic pool realizes; inputs and deltas are
/// drawn from these.
const CONCEPTS: &[&str] = &[
    "BiologicalSequence",
    "DNASequence",
    "RNASequence",
    "ProteinSequence",
    "AlgorithmName",
];

const MODULES: usize = 8;

/// How the mini modules misbehave: the share of salted inputs each one
/// rejects, the share on which its code panics, and optional seeded
/// transient faults `(seed, rate %)` injected around it.
#[derive(Debug, Clone, Copy, Default)]
struct Misbehavior {
    reject_pct: u64,
    panic_pct: u64,
    faults: Option<(u64, u32)>,
}

/// Deterministic black-box behavior: a digest of the inputs, scrambled by
/// `salt` on half of them. Same-shaped modules therefore agree on some
/// examples and not others (overlapping verdicts), and equal salts agree on
/// all of them (equivalent verdicts), so a lost or misplaced verdict shows.
fn mini_module(slot: usize, inputs: &[usize], salt: u64, misbehavior: Misbehavior) -> FnModule {
    let params: Vec<Parameter> = inputs
        .iter()
        .enumerate()
        .map(|(i, &c)| Parameter::required(format!("in{i}"), StructuralType::Text, CONCEPTS[c]))
        .collect();
    FnModule::new(
        ModuleDescriptor::new(
            format!("inc:m{slot}"),
            format!("IncModule{slot}"),
            ModuleKind::RestService,
            params,
            vec![Parameter::required(
                "digest",
                StructuralType::Text,
                "Document",
            )],
        ),
        move |values| {
            let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
            for v in values {
                if let Some(t) = v.as_text() {
                    for b in t.bytes() {
                        acc = acc.wrapping_mul(1099511628211).wrapping_add(u64::from(b));
                    }
                }
            }
            let out = if acc.is_multiple_of(2) {
                acc
            } else {
                acc ^ salt
            };
            if out % 100 < misbehavior.reject_pct {
                return Err(InvocationError::rejected("salted rejection"));
            }
            if out % 100 >= 100 - misbehavior.panic_pct {
                panic!("salted module panic");
            }
            Ok(vec![Value::text(format!("{out:016x}"))])
        },
    )
}

/// Input shape of slot `i`: three shape classes so fingerprint buckets
/// collide, with per-class concepts decoded from `shape_salt`.
fn shape_for(slot: usize, shape_salt: u64) -> Vec<usize> {
    let class = slot % 3;
    let pick = |k: u32| ((shape_salt >> (8 * k)) as usize) % CONCEPTS.len();
    match class {
        0 => vec![pick(0)],
        1 => vec![pick(1), pick(2)],
        _ => vec![pick(3)],
    }
}

/// Builds the mini world: `MODULES` deterministic modules over the mygrid
/// ontology (optionally wrapped in seeded fault injection) plus a depth-3
/// synthetic pool. Called once for the live engine and once, identically,
/// for the cold oracle.
fn mini_world(
    shape_salt: u64,
    behavior_salt: u64,
    misbehavior: Misbehavior,
) -> (Universe, InstancePool) {
    let ontology = dex_ontology::mygrid::ontology();
    let mut catalog = dex_modules::ModuleCatalog::new();
    for slot in 0..MODULES {
        let inputs = shape_for(slot, shape_salt);
        let module = mini_module(
            slot,
            &inputs,
            // Two salts: slots 0 and 6 (shape class 0) and 1 and 7
            // (class 1) behave identically.
            behavior_salt ^ ((slot % 2) as u64).wrapping_mul(0x9e37_79b9),
            misbehavior,
        );
        let shared: SharedModule = match misbehavior.faults {
            None => Arc::new(module),
            Some((fault_seed, fault_rate_pct)) => Arc::new(FaultyModule::new(
                Arc::new(module) as SharedModule,
                FaultPlan {
                    seed: fault_seed ^ slot as u64,
                    fault_rate_millis: fault_rate_pct * 10,
                    max_consecutive: 2,
                    latency_ticks: 1,
                    flaps: Vec::new(),
                },
            )),
        };
        catalog.register(shared);
    }
    let pool = build_synthetic_pool(&ontology, 3, 7);
    let universe = Universe {
        catalog,
        ontology,
        categories: BTreeMap::new(),
        specs: BTreeMap::new(),
        legacy: Vec::new(),
        expected_match: BTreeMap::new(),
        popular: BTreeSet::new(),
        unfamiliar_output: BTreeSet::new(),
        partial_output: BTreeSet::new(),
    };
    (universe, pool)
}

/// Decodes one op word into a delta. Ops may be no-ops at apply time
/// (removing a missing realization, withdrawing an already-withdrawn
/// module) — the engine and the cold replay must agree on those too.
fn decode_delta(i: usize, word: u64) -> Delta {
    let concept = CONCEPTS[(word >> 8) as usize % CONCEPTS.len()];
    match word % 5 {
        0 => Delta::PoolInsert {
            instance: AnnotatedInstance::synthetic(
                Value::text(format!("ZX{:04x}", word >> 16 & 0xffff)),
                concept,
            ),
        },
        1 => Delta::PoolRemove {
            concept: concept.to_string(),
            occurrence: (word >> 16) as usize % 4,
        },
        2 => Delta::ModuleWithdraw {
            id: format!("inc:m{}", (word >> 16) as usize % MODULES).into(),
        },
        3 => Delta::ModuleRestore {
            id: format!("inc:m{}", (word >> 16) as usize % MODULES).into(),
        },
        _ => Delta::OntologyEdgeAdd {
            parent: concept.to_string(),
            child: format!("GrownConcept{i}"),
        },
    }
}

/// Replays the same deltas onto a cold universe/pool by direct mutation —
/// the state a from-scratch pipeline run would start from.
fn replay_cold(universe: &mut Universe, pool: &mut InstancePool, deltas: &[Delta]) {
    for delta in deltas {
        match delta {
            Delta::PoolInsert { instance } => pool.add(instance.clone()),
            Delta::PoolRemove {
                concept,
                occurrence,
            } => {
                pool.remove_realization(concept, *occurrence);
            }
            Delta::ModuleWithdraw { id } => {
                universe.catalog.withdraw(id);
            }
            Delta::ModuleRestore { id } => {
                universe.catalog.restore(id);
            }
            Delta::OntologyEdgeAdd { parent, child } => {
                let _ = universe.ontology.add_child(child.clone(), parent);
            }
        }
    }
}

/// The substitute ranking the cold matrix implies for `target`: how many
/// of its row's pairs bear a verdict, and its usable verdicts ordered by
/// descending study rank, then by candidate id.
fn cold_substitutes(
    cold: &BTreeMap<(ModuleId, ModuleId), MatchReport>,
    target: &ModuleId,
) -> (usize, Vec<(ModuleId, MatchVerdict)>) {
    let verdicts: Vec<(ModuleId, MatchVerdict)> = cold
        .values()
        .filter(|r| &r.target == target)
        .filter_map(|r| match r.outcome {
            MatchOutcome::Verdict(v) => Some((r.candidate.clone(), v)),
            MatchOutcome::Incomparable(_) => None,
        })
        .collect();
    let mut ranked: Vec<(ModuleId, MatchVerdict)> = verdicts
        .iter()
        .filter(|(_, v)| v.is_usable())
        .cloned()
        .collect();
    ranked.sort_by(|a, b| {
        substitute_rank(&b.1)
            .partial_cmp(&substitute_rank(&a.1))
            .expect("ranks are finite")
            .then_with(|| a.0.cmp(&b.0))
    });
    (verdicts.len(), ranked)
}

/// Drives one full case: bootstrap the engine, apply the op words in
/// batches, and after every batch compare reports, matrix and every
/// available module's live substitute ranking against a cold full run over
/// the identically-replayed state.
fn check_equivalence(
    shape_salt: u64,
    behavior_salt: u64,
    misbehavior: Misbehavior,
    ops: &[u64],
    batch_len: usize,
) {
    let config = GenerationConfig {
        retry: if misbehavior.faults.is_some() {
            RetryPolicy::transient(4)
        } else {
            RetryPolicy::none()
        },
        ..GenerationConfig::default()
    };
    let (universe, pool) = mini_world(shape_salt, behavior_salt, misbehavior);
    let mut engine = IncrementalPipeline::bootstrap(universe, pool, config.clone());

    let deltas: Vec<Delta> = ops
        .iter()
        .enumerate()
        .map(|(i, &w)| decode_delta(i, w))
        .collect();
    let mut applied = 0usize;
    for batch in deltas.chunks(batch_len.max(1)) {
        let report = engine.apply(batch);
        assert_eq!(report.events, batch.len());
        applied += batch.len();

        // Cold oracle over the identically-replayed state.
        let (mut cold_u, mut cold_p) = mini_world(shape_salt, behavior_salt, misbehavior);
        replay_cold(&mut cold_u, &mut cold_p, &deltas[..applied]);

        let retrier = Retrier::new(config.retry);
        let fleet = generate_fleet(&cold_u, &cold_p, &config, 1, &retrier, false);
        assert!(
            fleet.failures.is_empty(),
            "cold oracle must generate cleanly: {:?}",
            fleet.failures
        );
        assert_eq!(
            engine.reports(),
            fleet.reports,
            "incremental reports diverged from cold run after {applied} deltas"
        );

        let ids = cold_u.available_ids();
        let cold: BTreeMap<_, MatchReport> =
            match_pairs_blocked(&cold_u, &ids, &cold_p, &config, &BatchConfig::default()).reports;
        assert_eq!(
            engine.matrix(),
            cold,
            "incremental matrix diverged from cold run after {applied} deltas"
        );

        // The live row scan `dexd` serves agrees with the cold row.
        for id in &ids {
            let answer = engine.substitutes(id).expect("available ids are tracked");
            let (compared, ranked) = cold_substitutes(&cold, id);
            assert!(answer.available, "{id} is available");
            assert_eq!(
                answer.candidates_compared, compared,
                "{id}: verdict count diverged from the cold row after {applied} deltas"
            );
            assert_eq!(
                answer.ranked, ranked,
                "{id}: substitute ranking diverged from the cold row after {applied} deltas"
            );
        }
    }

    // The carried-forward study covers every withdrawal seen, and only
    // usable verdicts become substitutes.
    let study = engine.matching_study();
    for m in study.matches.values() {
        if let Some((_, v)) = &m.best {
            assert!(v.is_usable());
        }
    }

    // Contained panics never left a shard lock poisoned: the audit locks
    // every shard.
    assert_eq!(engine.invocation_cache().memoized_transients(), 0);
}

proptest! {
    /// Incremental == cold, for any seeded delta sequence and batching.
    #[test]
    fn incremental_state_matches_cold_full_run(
        shape_salt in any::<u64>(),
        behavior_salt in any::<u64>(),
        reject_pct in 0u64..40,
        ops in proptest::collection::vec(any::<u64>(), 1..9),
        batch_len in 1usize..4,
    ) {
        let misbehavior = Misbehavior { reject_pct, ..Misbehavior::default() };
        check_equivalence(shape_salt, behavior_salt, misbehavior, &ops, batch_len);
    }

    /// Same contract with bounded transient faults injected into every
    /// module: the retry layer converges both the engine and the cold
    /// oracle to the true outcomes, so the equivalence still holds
    /// byte-for-byte even though the two runs see different fault-clock
    /// phases.
    #[test]
    fn incremental_matches_cold_run_under_faults(
        shape_salt in any::<u64>(),
        behavior_salt in any::<u64>(),
        reject_pct in 0u64..40,
        fault_seed in any::<u64>(),
        fault_rate_pct in 1u32..31,
        ops in proptest::collection::vec(any::<u64>(), 1..7),
        batch_len in 1usize..3,
    ) {
        let misbehavior = Misbehavior {
            reject_pct,
            faults: Some((fault_seed, fault_rate_pct)),
            ..Misbehavior::default()
        };
        check_equivalence(shape_salt, behavior_salt, misbehavior, &ops, batch_len);
    }

    /// Same contract with module code that panics on a salted share of its
    /// inputs, through bootstrap and every apply: each panic is contained
    /// at the invoke boundary as a permanent, memoized error, so the engine
    /// and the cold oracle agree on every outcome it touches.
    #[test]
    fn incremental_matches_cold_run_with_panicking_modules(
        shape_salt in any::<u64>(),
        behavior_salt in any::<u64>(),
        panic_pct in 1u64..40,
        ops in proptest::collection::vec(any::<u64>(), 1..7),
        batch_len in 1usize..3,
    ) {
        let misbehavior = Misbehavior { panic_pct, ..Misbehavior::default() };
        check_equivalence(shape_salt, behavior_salt, misbehavior, &ops, batch_len);
    }
}
