//! Criterion benchmark support crate (benches live in `benches/`) plus
//! what the `bench_*` report binaries share: the [`harness`] every one of
//! them measures, reports and gates through, and the amplified synthetic
//! registries.

use dex_core::FingerprintIndex;
use dex_modules::{FnModule, ModuleCatalog, ModuleId, SharedModule};
use dex_universe::Universe;
use dex_values::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

pub mod harness;

/// Every ordered pair `(t, c)` of distinct indices below `n`, target-major:
/// the order of an all-pairs matching sweep.
pub fn ordered_pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |t| (0..n).filter(move |&c| c != t).map(move |c| (t, c)))
}

/// Max distinct interface shapes in an amplified registry.
pub const MAX_SHAPES: usize = 64;

/// Builds an `n`-module synthetic registry by amplifying the shipped
/// universe: clones cycle over one representative module per fingerprint
/// bucket, so the registry has at most [`MAX_SHAPES`] interface shapes and
/// blocking has real work to do. Every third clone perturbs its text
/// outputs, so same-shape pairs split into equivalent (same variant) and
/// disjoint/overlapping (different variant) verdicts instead of collapsing
/// into one class.
pub fn amplified_universe(n: usize) -> Universe {
    let base = dex_universe::build();
    let ids = base.available_ids();
    let index = FingerprintIndex::build(
        ids.iter()
            .map(|id| base.catalog.get(id).map(|m| m.descriptor())),
        &base.ontology,
    );
    // One representative per bucket, first-seen order: deterministic.
    let representatives: Vec<SharedModule> = index
        .buckets()
        .take(MAX_SHAPES)
        .map(|bucket| Arc::clone(base.catalog.get(&ids[bucket[0]]).expect("available")))
        .collect();

    let mut catalog = ModuleCatalog::new();
    for i in 0..n {
        let source = Arc::clone(&representatives[i % representatives.len()]);
        let mut descriptor = source.descriptor().clone();
        descriptor.id = ModuleId::new(format!("syn:{i:05}"));
        descriptor.name = format!("Synthetic{i}");
        let perturb = i % 3 == 0;
        catalog.register(Arc::new(FnModule::new(descriptor, move |inputs| {
            let mut outputs = source.invoke(inputs)?;
            if perturb {
                for value in &mut outputs {
                    if let Some(text) = value.as_text() {
                        *value = Value::text(format!("{text}~"));
                    }
                }
            }
            Ok(outputs)
        })));
    }
    Universe {
        catalog,
        ontology: base.ontology,
        categories: BTreeMap::new(),
        specs: BTreeMap::new(),
        legacy: Vec::new(),
        expected_match: BTreeMap::new(),
        popular: Default::default(),
        unfamiliar_output: Default::default(),
        partial_output: Default::default(),
    }
}
