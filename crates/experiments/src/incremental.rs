//! Delta-driven incremental re-annotation (ROADMAP item 4): apply typed
//! [`Delta`] events to live pipeline state instead of re-running the whole
//! pipeline, keeping examples and the matching matrix *byte-identical* to a
//! cold full run on the resulting registry state.
//!
//! The engine owns the three layers a cold run builds from scratch and
//! maintains each one incrementally:
//!
//! 1. **Examples** — one generation report per tracked module, plus the
//!    module's [`generation_signature`] at the time it was generated. A
//!    delta dirties a module only if the candidate stage
//!    ([`DependencyIndex`]) flags it *and* its signature actually changed;
//!    only then is it regenerated, through the engine's warm
//!    [`InvocationCache`], so unchanged `(module, inputs)` invocations are
//!    answered from memory even inside a regeneration.
//! 2. **Blocking** — an incrementally maintained [`FingerprintIndex`]
//!    (single-slot `insert`/`remove`, no rebuilds).
//! 3. **Verdicts** — the sparse matrix of compared pairs, keyed by tracked
//!    slot. A regenerated module whose examples changed re-matches its
//!    *rows* only (`(m, peer)`): under strict mapping a verdict reads the
//!    target's examples and the candidate's behavior, never the candidate's
//!    own examples, so columns `(peer, m)` carry forward untouched. A
//!    module whose *fingerprint* changed migrates buckets: its old pairs
//!    are dropped and its new bucket's rows and columns are computed fresh.
//!
//! Withdrawn modules are left stale on purpose: their reports and
//! signatures are frozen at withdrawal (the catalog keeps descriptors but
//! not invokable handles), and the signature check at restore time decides
//! whether anything that happened meanwhile requires regeneration.
//!
//! At withdrawal the engine also feeds the repair layer: the module's
//! last-known row verdicts are ranked with the §6 study's own ordering
//! ([`pick_better_substitute`]) into a carried-forward substitute, exposed
//! via [`IncrementalPipeline::matching_study`] — the repair engine's
//! substitute search answered with zero replay invocations.

use dex_core::delta::{Delta, DeltaReport, DependencyIndex};
use dex_core::{
    compared_outcome, generate_examples_retrying, generation_signature, pruned_outcome,
    FingerprintIndex, GenerationConfig, GenerationError, GenerationReport, MatchOutcome,
    MatchReport, MatchVerdict,
};
use dex_modules::{InvocationCache, ModuleDescriptor, ModuleId, Retrier};
use dex_pool::InstancePool;
use dex_repair::{pick_better_substitute, substitute_rank, LegacyMatch, MatchingStudy};
use dex_universe::Universe;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

type SharedGeneration = Arc<Result<GenerationReport, GenerationError>>;

/// Live, incrementally maintained pipeline state over one universe.
pub struct IncrementalPipeline {
    universe: Universe,
    pool: InstancePool,
    config: GenerationConfig,
    /// The modules tracked by this engine: the universe's available modern
    /// modules at bootstrap, in sorted id order. Deltas may only reference
    /// these.
    ids: Vec<ModuleId>,
    slot_of: BTreeMap<ModuleId, usize>,
    /// Current availability per slot (kept in sync with the catalog).
    available: Vec<bool>,
    deps: DependencyIndex,
    index: FingerprintIndex,
    reports: Vec<SharedGeneration>,
    /// Invariant: `gen_sigs[i]` is the generation signature at the moment
    /// `reports[i]` was generated — so `reports[i]` is current exactly when
    /// `gen_sigs[i]` equals the signature recomputed against present state.
    gen_sigs: Vec<u64>,
    /// Stored outcomes of every comparable ordered pair among available
    /// slots. The `MatchReport` wrapper is reconstructed on demand: target
    /// and candidate ids are the key, and the `examples` count is derived
    /// from the target's current report, which by construction matches the
    /// report in force when the outcome was computed.
    verdicts: BTreeMap<(usize, usize), MatchOutcome>,
    cache: InvocationCache,
    /// Carried-forward substitute per withdrawn module, captured from its
    /// last-known row verdicts at withdrawal time.
    substitutes: BTreeMap<ModuleId, LegacyMatch>,
}

impl IncrementalPipeline {
    /// Cold-bootstraps the engine: generates examples for every available
    /// modern module, builds the fingerprint index and dependency graph,
    /// and fills the full comparable-pair verdict matrix.
    pub fn bootstrap(
        universe: Universe,
        pool: InstancePool,
        config: GenerationConfig,
    ) -> IncrementalPipeline {
        let _span = dex_telemetry::span("incremental.bootstrap");
        let ids = universe.available_ids();
        let slot_of: BTreeMap<ModuleId, usize> = ids
            .iter()
            .enumerate()
            .map(|(i, id)| (id.clone(), i))
            .collect();
        let cache = InvocationCache::new();
        let retrier = Retrier::new(config.retry);
        let mut deps = DependencyIndex::new();
        let mut reports = Vec::with_capacity(ids.len());
        let mut gen_sigs = Vec::with_capacity(ids.len());
        for (i, id) in ids.iter().enumerate() {
            let module = universe.catalog.get(id).expect("bootstrap id is available");
            deps.set_module(i, module.descriptor(), &universe.ontology);
            gen_sigs.push(generation_signature(
                module.descriptor(),
                &universe.ontology,
                &pool,
                &config,
            ));
            reports.push(Arc::new(generate_examples_retrying(
                module.as_ref(),
                &universe.ontology,
                &pool,
                &config,
                &cache,
                &retrier,
            )));
        }
        let index = FingerprintIndex::build(
            ids.iter()
                .map(|id| universe.catalog.get(id).map(|m| m.descriptor())),
            &universe.ontology,
        );
        let available = vec![true; ids.len()];
        let mut engine = IncrementalPipeline {
            universe,
            pool,
            config,
            ids,
            slot_of,
            available,
            deps,
            index,
            reports,
            gen_sigs,
            verdicts: BTreeMap::new(),
            cache,
            substitutes: BTreeMap::new(),
        };
        for (t, c) in engine.index.comparable_pairs() {
            let outcome = engine.pair_outcome(t, c, &retrier);
            engine.verdicts.insert((t, c), outcome);
        }
        engine
    }

    /// Applies one batch of deltas and returns the batch's accounting.
    ///
    /// After this returns, [`reports`](IncrementalPipeline::reports) and
    /// [`matrix`](IncrementalPipeline::matrix) are byte-identical to what a
    /// cold full run over the mutated universe/pool would produce (the
    /// equivalence proptests in `tests/incremental_equivalence.rs` pin
    /// this, with and without fault injection).
    pub fn apply(&mut self, deltas: &[Delta]) -> DeltaReport {
        let _span = dex_telemetry::span("incremental.apply");
        let retrier = Retrier::new(self.config.retry);
        let mut stats = DeltaReport {
            events: deltas.len(),
            ..DeltaReport::default()
        };

        // Phase A — mutate primary state, accumulating the candidate dirty
        // sets (stage 1 of the dirty-set derivation; see dex_core::delta).
        let mut dirty_candidates: BTreeSet<usize> = BTreeSet::new();
        let mut plan_dirty: BTreeSet<usize> = BTreeSet::new();
        for delta in deltas {
            if dex_telemetry::flight_on() {
                let (target, detail) = match delta {
                    Delta::PoolInsert { instance } => {
                        (instance.concept.as_str(), "pool insert".to_string())
                    }
                    Delta::PoolRemove {
                        concept,
                        occurrence,
                    } => (concept.as_str(), format!("pool remove #{occurrence}")),
                    Delta::ModuleWithdraw { id } => (id.as_str(), "module withdraw".to_string()),
                    Delta::ModuleRestore { id } => (id.as_str(), "module restore".to_string()),
                    Delta::OntologyEdgeAdd { parent, child } => {
                        (child.as_str(), format!("ontology edge under {parent}"))
                    }
                };
                dex_telemetry::flight(dex_telemetry::FlightKind::DeltaApplied, target, detail, 0);
            }
            match delta {
                Delta::PoolInsert { instance } => {
                    let concept = instance.concept.clone();
                    self.pool.add(instance.clone());
                    dirty_candidates.extend(self.deps.modules_for_concept(&concept));
                }
                Delta::PoolRemove {
                    concept,
                    occurrence,
                } => {
                    if self.pool.remove_realization(concept, *occurrence).is_some() {
                        dirty_candidates.extend(self.deps.modules_for_concept(concept));
                    }
                }
                Delta::ModuleWithdraw { id } => {
                    self.require_tracked(id);
                    self.universe.catalog.withdraw(id);
                }
                Delta::ModuleRestore { id } => {
                    self.require_tracked(id);
                    self.universe.catalog.restore(id);
                }
                Delta::OntologyEdgeAdd { parent, child } => {
                    // A new leaf under `parent` can only extend the
                    // partition sets of modules annotated at or above it.
                    // (Adding a leaf changes no existing ancestor relation,
                    // so computing the affected set after the mutation is
                    // equivalent to before.)
                    if self
                        .universe
                        .ontology
                        .add_child(child.clone(), parent)
                        .is_ok()
                    {
                        plan_dirty.extend(
                            self.deps
                                .modules_with_input_subsuming(parent, &self.universe.ontology),
                        );
                    }
                }
            }
        }

        // Phase B — refresh plans for ontology-affected modules, diff
        // availability, and maintain the fingerprint index incrementally.
        for &i in &plan_dirty {
            let descriptor = self
                .universe
                .catalog
                .descriptor(&self.ids[i])
                .expect("descriptors survive withdrawal");
            self.deps.set_module(i, descriptor, &self.universe.ontology);
        }
        let mut to_withdrawn: Vec<usize> = Vec::new();
        let mut to_restored: Vec<usize> = Vec::new();
        for i in 0..self.ids.len() {
            let now = self.universe.catalog.is_available(&self.ids[i]);
            if now != self.available[i] {
                self.available[i] = now;
                if now {
                    to_restored.push(i);
                } else {
                    to_withdrawn.push(i);
                }
            }
        }
        // Substitute capture must see the pre-drop matrix.
        for &i in &to_withdrawn {
            self.capture_substitute(i);
            self.index.remove(i);
        }
        let mut fp_changed: BTreeSet<usize> = BTreeSet::new();
        for &i in &plan_dirty {
            if !self.available[i] || to_restored.contains(&i) {
                // Vacant slots stay vacant; restored slots are re-inserted
                // below with the current ontology either way.
                continue;
            }
            let old = self.index.fingerprint(i).copied();
            let descriptor = self
                .universe
                .catalog
                .descriptor(&self.ids[i])
                .expect("available module has a descriptor");
            self.index.insert(i, descriptor, &self.universe.ontology);
            if self.index.fingerprint(i).copied() != old {
                fp_changed.insert(i);
            }
        }
        for &i in &to_restored {
            let descriptor = self
                .universe
                .catalog
                .descriptor(&self.ids[i])
                .expect("restored module has a descriptor");
            self.index.insert(i, descriptor, &self.universe.ontology);
        }

        // Phase C — confirmation stage: candidates (and restored modules,
        // whose frozen reports may have gone stale while withdrawn) are
        // regenerated only if their signature really changed.
        dirty_candidates.extend(plan_dirty.iter().copied());
        // Slot → the signature it will be regenerated under.
        let mut regen: BTreeMap<usize, u64> = BTreeMap::new();
        for &i in dirty_candidates.iter().chain(to_restored.iter()) {
            if !self.available[i] {
                continue;
            }
            stats.dirty_candidates += 1;
            let sig = generation_signature(
                self.descriptor(i),
                &self.universe.ontology,
                &self.pool,
                &self.config,
            );
            if sig != self.gen_sigs[i] {
                regen.insert(i, sig);
            }
        }
        let regenerated: Vec<(usize, u64, SharedGeneration)> = regen
            .iter()
            .map(|(&i, &sig)| {
                let module = self
                    .universe
                    .catalog
                    .get(&self.ids[i])
                    .expect("regeneration targets available modules");
                let report = Arc::new(generate_examples_retrying(
                    module.as_ref(),
                    &self.universe.ontology,
                    &self.pool,
                    &self.config,
                    &self.cache,
                    &retrier,
                ));
                (i, sig, report)
            })
            .collect();
        let mut examples_changed: BTreeSet<usize> = BTreeSet::new();
        for (i, sig, report) in regenerated {
            if generation_outcome_differs(&self.reports[i], &report) {
                examples_changed.insert(i);
            }
            self.reports[i] = report;
            self.gen_sigs[i] = sig;
        }

        // Phase D — verdict maintenance. Slots that left their bucket
        // (withdrawn, or migrated to a different fingerprint) lose every
        // stored pair; migrated and restored slots then recompute rows and
        // columns against their current bucket, while examples-changed
        // slots recompute rows only (strict-mapping verdicts never read the
        // candidate's examples).
        let mut vacated: BTreeSet<usize> = to_withdrawn.iter().copied().collect();
        vacated.extend(fp_changed.iter().copied());
        if !vacated.is_empty() {
            let stale: Vec<(usize, usize)> = self
                .verdicts
                .keys()
                .filter(|(t, c)| vacated.contains(t) || vacated.contains(c))
                .copied()
                .collect();
            stats.dropped_pairs = stale.len();
            for key in stale {
                self.verdicts.remove(&key);
            }
        }
        let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut rejoining: BTreeSet<usize> = to_restored.iter().copied().collect();
        rejoining.extend(fp_changed.iter().copied());
        for &i in &rejoining {
            for &p in self.index.peers(i) {
                if p != i {
                    pairs.insert((i, p));
                    pairs.insert((p, i));
                }
            }
        }
        for &i in &examples_changed {
            for &p in self.index.peers(i) {
                if p != i {
                    pairs.insert((i, p));
                }
            }
        }
        let computed: Vec<((usize, usize), MatchOutcome)> = pairs
            .iter()
            .map(|&(t, c)| ((t, c), self.pair_outcome(t, c, &retrier)))
            .collect();
        for (key, outcome) in computed {
            self.verdicts.insert(key, outcome);
        }

        stats.regenerated_modules = regen.len();
        stats.examples_changed = examples_changed.len();
        stats.fingerprints_changed = fp_changed.len();
        stats.recomputed_pairs = pairs.len();
        stats.carried_forward = self.verdicts.len() - pairs.len();
        for i in 0..self.ids.len() {
            if self.available[i] {
                stats.cells_total += self.deps.cells(i);
            }
        }
        for &i in regen.keys() {
            stats.cells_dirty += self.deps.cells(i);
        }
        stats.publish_telemetry();
        stats
    }

    fn require_tracked(&self, id: &ModuleId) {
        assert!(
            self.slot_of.contains_key(id),
            "delta references `{id}`, which was not tracked at bootstrap"
        );
    }

    /// One compared pair's outcome, decided by the same
    /// [`compared_outcome`] rule as `MatchSession::compare_report`.
    fn pair_outcome(&self, t: usize, c: usize, retrier: &Retrier) -> MatchOutcome {
        let candidate = self
            .universe
            .catalog
            .get(&self.ids[c])
            .expect("compared pairs are available");
        compared_outcome(
            self.descriptor(t),
            &self.reports[t],
            candidate.as_ref(),
            &self.universe.ontology,
            &self.cache,
            retrier,
        )
    }

    /// Slot `i`'s descriptor (kept by the catalog across withdrawal).
    fn descriptor(&self, i: usize) -> &ModuleDescriptor {
        self.universe
            .catalog
            .descriptor(&self.ids[i])
            .expect("descriptors survive withdrawal")
    }

    /// Ranks slot `i`'s current row verdicts into a carried-forward
    /// substitute, using the §6 study's own ordering.
    fn capture_substitute(&mut self, i: usize) {
        let id = self.ids[i].clone();
        let mut best: Option<(ModuleId, MatchVerdict)> = None;
        let mut compared = 0usize;
        for ((_, c), outcome) in self.verdicts.range((i, 0)..=(i, usize::MAX)) {
            if let MatchOutcome::Verdict(v) = outcome {
                compared += 1;
                best = pick_better_substitute(best, (self.ids[*c].clone(), *v));
            }
        }
        let examples = match self.reports[i].as_ref() {
            Ok(report) => report.examples.len(),
            Err(_) => 0,
        };
        self.substitutes.insert(
            id.clone(),
            LegacyMatch {
                module: id,
                reconstructed_examples: examples,
                candidates_compared: compared,
                best: best.filter(|(_, v)| v.is_usable()),
            },
        );
    }

    /// The maintained universe (deltas applied).
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The maintained pool (deltas applied).
    pub fn pool(&self) -> &InstancePool {
        &self.pool
    }

    /// The tracked module ids, in slot order.
    pub fn tracked_ids(&self) -> &[ModuleId] {
        &self.ids
    }

    /// Successful generation reports of the currently available modules —
    /// the same map a cold `generate_fleet` over the present state returns.
    pub fn reports(&self) -> BTreeMap<ModuleId, GenerationReport> {
        let mut out = BTreeMap::new();
        for (i, id) in self.ids.iter().enumerate() {
            if !self.available[i] {
                continue;
            }
            if let Ok(report) = self.reports[i].as_ref() {
                out.insert(id.clone(), report.clone());
            }
        }
        out
    }

    /// Materializes the dense matching matrix over the currently available
    /// modules — byte-identical to `match_pairs_blocked` over the present
    /// state. Compared pairs come from the maintained verdict store;
    /// fingerprint-pruned pairs are synthesized invocation-free by the same
    /// [`pruned_outcome`] rule as `MatchSession::pruned_report_prepared`.
    pub fn matrix(&self) -> BTreeMap<(ModuleId, ModuleId), MatchReport> {
        let slots: Vec<usize> = (0..self.ids.len()).filter(|&i| self.available[i]).collect();
        let mut out = BTreeMap::new();
        for &t in &slots {
            let examples = match self.reports[t].as_ref() {
                Ok(report) => report.examples.len(),
                Err(_) => 0,
            };
            for &c in &slots {
                if t == c {
                    continue;
                }
                let outcome = if self.index.is_comparable(t, c) {
                    self.verdicts
                        .get(&(t, c))
                        .expect("comparable pairs are maintained")
                        .clone()
                } else {
                    pruned_outcome(
                        self.descriptor(t),
                        &self.reports[t],
                        self.descriptor(c),
                        &self.universe.ontology,
                    )
                    .expect("incompatible fingerprints admit no strict mapping")
                };
                out.insert(
                    (self.ids[t].clone(), self.ids[c].clone()),
                    MatchReport {
                        target: self.ids[t].clone(),
                        candidate: self.ids[c].clone(),
                        outcome,
                        examples,
                    },
                );
            }
        }
        out
    }

    /// The carried-forward substitute for a withdrawn tracked module, if
    /// its last-known row held a usable verdict.
    pub fn substitute_for(&self, id: &ModuleId) -> Option<&(ModuleId, MatchVerdict)> {
        self.substitutes.get(id).and_then(|m| m.best.as_ref())
    }

    /// The repair-layer view of every withdrawal seen so far: a
    /// [`MatchingStudy`] assembled from carried-forward verdicts, zero
    /// replay invocations.
    pub fn matching_study(&self) -> MatchingStudy {
        MatchingStudy::from_carried(self.substitutes.values().cloned())
    }

    /// The engine's warm invocation cache (shared across bootstrap and
    /// every apply).
    pub fn invocation_cache(&self) -> &InvocationCache {
        &self.cache
    }

    /// Whether `id` is tracked, and if so whether it is currently
    /// available.
    pub fn availability(&self, id: &ModuleId) -> Option<bool> {
        self.slot_of.get(id).map(|&i| self.available[i])
    }

    /// Tracked modules currently available.
    pub fn available_count(&self) -> usize {
        self.available.iter().filter(|&&a| a).count()
    }

    /// The maintained annotation of one tracked module: its availability
    /// plus the generation outcome in force (frozen at withdrawal time for
    /// withdrawn modules).
    pub fn annotation(
        &self,
        id: &ModuleId,
    ) -> Option<(bool, &Result<GenerationReport, GenerationError>)> {
        let &i = self.slot_of.get(id)?;
        Some((self.available[i], &*self.reports[i]))
    }

    /// The fingerprint bucket key of an available tracked module — the
    /// key `dexd` groups batched substitute lookups under (each lookup
    /// still scans its own row). `None` for withdrawn or untracked
    /// modules.
    pub fn bucket_key(&self, id: &ModuleId) -> Option<u64> {
        let &i = self.slot_of.get(id)?;
        if !self.available[i] {
            return None;
        }
        self.index.fingerprint(i).map(|fp| fp.stable_hash())
    }

    /// Ranks the current substitutes for a tracked module, best first,
    /// using the §6 study's ordering ([`pick_better_substitute`]).
    /// Available modules are answered from their live row verdicts;
    /// withdrawn modules return their carried-forward capture (best only —
    /// that is all that is kept at withdrawal).
    pub fn substitutes(&self, id: &ModuleId) -> Option<SubstituteAnswer> {
        let &i = self.slot_of.get(id)?;
        if !self.available[i] {
            let carried = self.substitutes.get(id)?;
            return Some(SubstituteAnswer {
                module: id.clone(),
                available: false,
                candidates_compared: carried.candidates_compared,
                ranked: carried.best.clone().into_iter().collect(),
            });
        }
        let mut compared = 0usize;
        let mut ranked: Vec<(ModuleId, MatchVerdict)> = Vec::new();
        for ((_, c), outcome) in self.verdicts.range((i, 0)..=(i, usize::MAX)) {
            if let MatchOutcome::Verdict(v) = outcome {
                compared += 1;
                if v.is_usable() {
                    ranked.push((self.ids[*c].clone(), *v));
                }
            }
        }
        // Descending study rank; ties break toward the smaller id, which is
        // exactly what the incumbent-wins fold over ascending slot order
        // produces, so `ranked.first()` agrees with `pick_better_substitute`.
        ranked.sort_by(|a, b| {
            substitute_rank(&b.1)
                .partial_cmp(&substitute_rank(&a.1))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        Some(SubstituteAnswer {
            module: id.clone(),
            available: true,
            candidates_compared: compared,
            ranked,
        })
    }
}

/// One substitute lookup, answered from live pipeline state with zero
/// replay invocations.
#[derive(Debug, Clone)]
pub struct SubstituteAnswer {
    /// The module the lookup targeted.
    pub module: ModuleId,
    /// Whether it is currently available (live row scan) or withdrawn
    /// (carried-forward capture).
    pub available: bool,
    /// Verdict-bearing comparisons behind the ranking.
    pub candidates_compared: usize,
    /// Usable candidates, best first.
    pub ranked: Vec<(ModuleId, MatchVerdict)>,
}

impl SubstituteAnswer {
    /// The top-ranked candidate, if any verdict was usable.
    pub fn best(&self) -> Option<&(ModuleId, MatchVerdict)> {
        self.ranked.first()
    }
}

/// Whether two generation outcomes differ in anything a strict-mapping
/// verdict can read: the example set, or the rendered generation error.
fn generation_outcome_differs(old: &SharedGeneration, new: &SharedGeneration) -> bool {
    match (old.as_ref(), new.as_ref()) {
        (Ok(a), Ok(b)) => a.examples != b.examples,
        (Err(a), Err(b)) => a.to_string() != b.to_string(),
        _ => true,
    }
}
