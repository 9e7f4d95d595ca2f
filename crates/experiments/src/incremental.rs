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
//!    (single-slot moves, no rebuilds).
//! 3. **Verdicts** — a `VerdictStore` that owns the index and one dense
//!    `m × m` matrix per fingerprint bucket, moved in lockstep with bucket
//!    membership. A cell holds only the `agreeing` count; `compared` and the
//!    verdict kind follow from the target's current report. A regenerated
//!    module whose examples changed re-matches its *row* only: under strict
//!    mapping a verdict reads the target's examples and the candidate's
//!    behavior, never the candidate's own examples, so its column carries
//!    forward untouched. A module whose *fingerprint* changed migrates
//!    buckets: its old row and column are dropped and its new bucket's row
//!    and column are computed fresh, as for a restored module.
//!
//! A batch costs what it touches: the availability diff reads only the
//! batch's own withdraw/restore ids, each touched bucket is re-laid once, and
//! only the cells of arriving slots and changed rows are recomputed.
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
    MatchReport, MatchVerdict, PartitionFingerprint,
};
use dex_modules::{InvocationCache, ModuleDescriptor, ModuleId, Retrier};
use dex_pool::InstancePool;
use dex_repair::{pick_better_substitute, substitute_rank, LegacyMatch, MatchingStudy};
use dex_universe::Universe;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

type Generation = Result<GenerationReport, GenerationError>;
type SharedGeneration = Arc<Generation>;

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
    reports: Vec<SharedGeneration>,
    /// Invariant: `gen_sigs[i]` is the generation signature at the moment
    /// `reports[i]` was generated — so `reports[i]` is current exactly when
    /// `gen_sigs[i]` equals the signature recomputed against present state.
    gen_sigs: Vec<u64>,
    /// Bucket membership and the verdict of every comparable ordered pair
    /// among available slots.
    store: VerdictStore,
    cache: InvocationCache,
    /// Carried-forward substitute per withdrawn module, captured from its
    /// last-known row verdicts at withdrawal time.
    study: MatchingStudy,
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
            reports,
            gen_sigs,
            store: VerdictStore::new(index),
            cache,
            study: MatchingStudy::default(),
        };
        // Bucket-major, the order `comparable_pairs` lists the pairs in.
        let buckets: Vec<Vec<usize>> = engine
            .store
            .index
            .buckets()
            .map(<[usize]>::to_vec)
            .collect();
        for bucket in &buckets {
            for &t in bucket {
                engine.fill_row(t, bucket.iter().copied(), &retrier);
            }
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
        // Slots a withdraw or restore named: the only ones whose
        // availability can have changed.
        let mut availability_touched: BTreeSet<usize> = BTreeSet::new();
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
                    availability_touched.insert(self.tracked_slot(id));
                    self.universe.catalog.withdraw(id);
                }
                Delta::ModuleRestore { id } => {
                    availability_touched.insert(self.tracked_slot(id));
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
        // availability, and move slots between buckets: withdrawn slots leave,
        // restored slots join, and slots whose fingerprint changed migrate.
        for &i in &plan_dirty {
            let descriptor = self
                .universe
                .catalog
                .descriptor(&self.ids[i])
                .expect("descriptors survive withdrawal");
            self.deps.set_module(i, descriptor, &self.universe.ontology);
        }
        let mut to_withdrawn: Vec<usize> = Vec::new();
        let mut to_restored: BTreeSet<usize> = BTreeSet::new();
        for i in availability_touched {
            let now = self.universe.catalog.is_available(&self.ids[i]);
            if now != self.available[i] {
                self.available[i] = now;
                if now {
                    to_restored.insert(i);
                } else {
                    to_withdrawn.push(i);
                }
            }
        }
        let mut moves: Vec<(usize, Option<PartitionFingerprint>)> = Vec::new();
        // Substitute capture must see the pre-drop matrix.
        for &i in &to_withdrawn {
            self.capture_substitute(i);
            moves.push((i, None));
        }
        let mut fp_changed: BTreeSet<usize> = BTreeSet::new();
        for &i in &plan_dirty {
            if !self.available[i] || to_restored.contains(&i) {
                // Vacant slots stay vacant; restored slots join below with
                // the current ontology either way.
                continue;
            }
            let fp = PartitionFingerprint::of(self.descriptor(i), &self.universe.ontology);
            if self.store.index.fingerprint(i) != Some(&fp) {
                fp_changed.insert(i);
                moves.push((i, Some(fp)));
            }
        }
        for &i in &to_restored {
            let fp = PartitionFingerprint::of(self.descriptor(i), &self.universe.ontology);
            moves.push((i, Some(fp)));
        }
        stats.dropped_pairs = self.store.relocate(&moves);

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

        // Phase D — verdict maintenance. Slots that joined a bucket
        // (restored, or migrated to a different fingerprint) compute their
        // row and column; examples-changed slots recompute their row only
        // (strict-mapping verdicts never read the candidate's examples).
        let fresh: BTreeSet<usize> = to_restored.union(&fp_changed).copied().collect();
        let rows: BTreeSet<usize> = fresh.union(&examples_changed).copied().collect();
        // Each touched bucket once, keyed by its smallest member.
        let buckets: BTreeSet<usize> = rows.iter().map(|&i| self.store.index.peers(i)[0]).collect();
        let mut recomputed = 0usize;
        for first in buckets {
            let members = self.store.index.peers(first).to_vec();
            let fresh_here: Vec<usize> = members
                .iter()
                .copied()
                .filter(|i| fresh.contains(i))
                .collect();
            for &t in &members {
                let cols = if rows.contains(&t) {
                    &members
                } else {
                    &fresh_here
                };
                recomputed += self.fill_row(t, cols.iter().copied(), &retrier);
            }
        }

        stats.regenerated_modules = regen.len();
        stats.examples_changed = examples_changed.len();
        stats.fingerprints_changed = fp_changed.len();
        stats.recomputed_pairs = recomputed;
        stats.carried_forward = self.store.len() - recomputed;
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

    /// The slot of a tracked id.
    ///
    /// # Panics
    /// Panics if `id` was not tracked at bootstrap.
    fn tracked_slot(&self, id: &ModuleId) -> usize {
        *self.slot_of.get(id).unwrap_or_else(|| {
            panic!("delta references `{id}`, which was not tracked at bootstrap")
        })
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

    /// Computes and stores the outcomes of `t`'s row at candidates `cols`
    /// (`t` itself is skipped); returns how many cells were written.
    fn fill_row(
        &mut self,
        t: usize,
        cols: impl Iterator<Item = usize>,
        retrier: &Retrier,
    ) -> usize {
        let outcomes: Vec<(usize, MatchOutcome)> = cols
            .filter(|&c| c != t)
            .map(|c| (c, self.pair_outcome(t, c, retrier)))
            .collect();
        let written = outcomes.len();
        self.store.write_row(t, &self.reports[t], outcomes);
        written
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
        for (c, outcome) in self.store.row(i, &self.reports[i]) {
            if let MatchOutcome::Verdict(v) = outcome {
                compared += 1;
                best = pick_better_substitute(best, (self.ids[c].clone(), v));
            }
        }
        let examples = match self.reports[i].as_ref() {
            Ok(report) => report.examples.len(),
            Err(_) => 0,
        };
        self.study.matches.insert(
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
    /// state: every [`matrix_row`](IncrementalPipeline::matrix_row).
    pub fn matrix(&self) -> BTreeMap<(ModuleId, ModuleId), MatchReport> {
        (0..self.ids.len())
            .filter(|&t| self.available[t])
            .flat_map(|t| self.row_reports(t))
            .map(|r| ((r.target.clone(), r.candidate.clone()), r))
            .collect()
    }

    /// One available module's row of [`matrix`](IncrementalPipeline::matrix):
    /// its report against every other available module, in candidate id
    /// order. `None` for withdrawn or untracked modules.
    pub fn matrix_row(&self, id: &ModuleId) -> Option<Vec<MatchReport>> {
        let &t = self.slot_of.get(id)?;
        self.available[t].then(|| self.row_reports(t))
    }

    /// Row `t` of the matrix. Compared pairs come from the verdict store;
    /// fingerprint-pruned pairs are synthesized invocation-free by the same
    /// [`pruned_outcome`] rule as `MatchSession::pruned_report_prepared`.
    fn row_reports(&self, t: usize) -> Vec<MatchReport> {
        let examples = match self.reports[t].as_ref() {
            Ok(report) => report.examples.len(),
            Err(_) => 0,
        };
        let mut stored: BTreeMap<usize, MatchOutcome> =
            self.store.row(t, &self.reports[t]).collect();
        (0..self.ids.len())
            .filter(|&c| c != t && self.available[c])
            .map(|c| {
                let outcome = stored.remove(&c).unwrap_or_else(|| {
                    pruned_outcome(
                        self.descriptor(t),
                        &self.reports[t],
                        self.descriptor(c),
                        &self.universe.ontology,
                    )
                    .expect("incompatible fingerprints admit no strict mapping")
                });
                MatchReport {
                    target: self.ids[t].clone(),
                    candidate: self.ids[c].clone(),
                    outcome,
                    examples,
                }
            })
            .collect()
    }

    /// The carried-forward substitute for a withdrawn tracked module, if
    /// its last-known row held a usable verdict.
    pub fn substitute_for(&self, id: &ModuleId) -> Option<&(ModuleId, MatchVerdict)> {
        self.study.substitute_for(id)
    }

    /// The repair-layer view of every withdrawal seen so far: a
    /// [`MatchingStudy`] of carried-forward verdicts, zero replay
    /// invocations.
    pub fn matching_study(&self) -> &MatchingStudy {
        &self.study
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
        self.store.index.fingerprint(i).map(|fp| fp.stable_hash())
    }

    /// Ranks the current substitutes for a tracked module, best first,
    /// using the §6 study's ordering ([`pick_better_substitute`]).
    /// Available modules are answered from their live row verdicts;
    /// withdrawn modules return their carried-forward capture (best only —
    /// that is all that is kept at withdrawal).
    pub fn substitutes(&self, id: &ModuleId) -> Option<SubstituteAnswer> {
        let &i = self.slot_of.get(id)?;
        if !self.available[i] {
            let carried = self.study.matches.get(id)?;
            return Some(SubstituteAnswer {
                module: id.clone(),
                available: false,
                candidates_compared: carried.candidates_compared,
                ranked: carried.best.clone().into_iter().collect(),
            });
        }
        let mut compared = 0usize;
        let mut ranked: Vec<(ModuleId, MatchVerdict)> = Vec::new();
        for (c, outcome) in self.store.row(i, &self.reports[i]) {
            if let MatchOutcome::Verdict(v) = outcome {
                compared += 1;
                if v.is_usable() {
                    ranked.push((self.ids[c].clone(), v));
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
#[derive(Debug, Clone, PartialEq)]
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

/// Bucket membership and the verdict of every comparable ordered pair, as
/// one dense `m × m` matrix per fingerprint bucket of `m ≥ 2` members.
///
/// A row is a target and a column a candidate, both indexed by position in
/// the bucket's sorted member list, so a row reads in ascending slot order.
/// A cell stores only the `agreeing` count: `compared` is the target's
/// current `examples.len()` and the verdict kind follows from the two
/// ([`MatchVerdict::from_counts`]); a target whose report failed, or holds
/// no examples, decodes to the incomparability its report implies. Every
/// write is checked: an outcome the cell does not decode back to exactly —
/// a non-mapping pair in a bucket, say — is kept verbatim in `exceptions`,
/// so the store stays lossless whatever blocking admits.
///
/// The store owns the [`FingerprintIndex`] and changes it only through
/// [`relocate`](VerdictStore::relocate), which moves the matrices along.
struct VerdictStore {
    index: FingerprintIndex,
    /// Row-major agreeing counts per bucket; the diagonal is unused.
    cells: HashMap<PartitionFingerprint, Vec<u32>>,
    /// Outcomes the cell encoding cannot reproduce, keyed by slot pair.
    exceptions: HashMap<(usize, usize), MatchOutcome>,
    /// Stored ordered pairs: `Σ m·(m−1)` over the buckets.
    len: usize,
}

/// Ordered pairs of distinct members in a bucket of `m`.
fn pairs(m: usize) -> usize {
    m * m.saturating_sub(1)
}

impl VerdictStore {
    /// A store over `index` with every cell zeroed, to be filled through
    /// [`write_row`](VerdictStore::write_row).
    fn new(index: FingerprintIndex) -> VerdictStore {
        let mut cells = HashMap::new();
        let mut len = 0;
        for bucket in index.buckets().filter(|b| b.len() >= 2) {
            let fp = *index
                .fingerprint(bucket[0])
                .expect("bucketed slots have fingerprints");
            cells.insert(fp, vec![0; bucket.len() * bucket.len()]);
            len += pairs(bucket.len());
        }
        VerdictStore {
            index,
            cells,
            exceptions: HashMap::new(),
            len,
        }
    }

    /// Number of stored ordered pairs.
    fn len(&self) -> usize {
        self.len
    }

    /// Moves slots between buckets (`None`: the slot leaves every bucket),
    /// in lockstep with the index. A leaving slot's row and column are
    /// dropped; an arriving slot gets a zeroed row and column, which the
    /// caller must fill. Each touched bucket is re-laid once, whatever the
    /// number of moves into or out of it. Returns the dropped pairs.
    fn relocate(&mut self, moves: &[(usize, Option<PartitionFingerprint>)]) -> usize {
        // Each touched bucket's members before its first move.
        let mut before: HashMap<PartitionFingerprint, Vec<usize>> = HashMap::new();
        for &(i, fp) in moves {
            for f in [self.index.fingerprint(i).copied(), fp]
                .into_iter()
                .flatten()
            {
                before
                    .entry(f)
                    .or_insert_with(|| self.index.members(&f).to_vec());
            }
            self.index.set(i, fp);
        }
        let mut dropped = 0;
        for (fp, old) in before {
            let new = self.index.members(&fp);
            let old_cells = self.cells.remove(&fp).unwrap_or_default();
            // New position → old position, for members that stayed.
            let from: Vec<Option<usize>> = new.iter().map(|s| old.binary_search(s).ok()).collect();
            let (m, n) = (old.len(), new.len());
            let stayed = from.iter().flatten().count();
            dropped += pairs(m) - pairs(stayed);
            self.len = self.len - pairs(m) + pairs(n);
            if n < 2 {
                continue;
            }
            let mut cells = vec![0; n * n];
            for (r, fr) in from.iter().enumerate() {
                let Some(fr) = fr else { continue };
                for (c, fc) in from.iter().enumerate() {
                    if let (Some(fc), true) = (fc, r != c) {
                        cells[r * n + c] = old_cells[fr * m + fc];
                    }
                }
            }
            self.cells.insert(fp, cells);
        }
        if !self.exceptions.is_empty() {
            let moved: BTreeSet<usize> = moves.iter().map(|&(i, _)| i).collect();
            self.exceptions
                .retain(|(t, c), _| !moved.contains(t) && !moved.contains(c));
        }
        dropped
    }

    /// Stores row `t`'s outcomes at the given candidates; `report` is the
    /// target's report the outcomes were computed from.
    fn write_row(&mut self, t: usize, report: &Generation, outcomes: Vec<(usize, MatchOutcome)>) {
        if outcomes.is_empty() {
            return;
        }
        let fp = self
            .index
            .fingerprint(t)
            .expect("written rows are bucketed");
        let members = self.index.members(fp);
        let m = members.len();
        let r = members
            .binary_search(&t)
            .expect("a slot is in its own bucket");
        let cells = self
            .cells
            .get_mut(fp)
            .expect("buckets of two or more have a matrix");
        for (c, outcome) in outcomes {
            let col = members
                .binary_search(&c)
                .expect("written pairs share a bucket");
            let agreeing = match &outcome {
                MatchOutcome::Verdict(v) => u32::try_from(v.agreeing()).ok(),
                MatchOutcome::Incomparable(_) => Some(0),
            };
            let exact = agreeing.is_some_and(|a| decode(report, a) == outcome);
            cells[r * m + col] = agreeing.unwrap_or(0);
            if !exact {
                self.exceptions.insert((t, c), outcome);
            } else if !self.exceptions.is_empty() {
                self.exceptions.remove(&(t, c));
            }
        }
    }

    /// Row `t`'s stored outcomes in ascending candidate slot order (empty
    /// for a vacant slot); `report` is the target's current report.
    fn row<'a>(
        &'a self,
        t: usize,
        report: &'a Generation,
    ) -> impl Iterator<Item = (usize, MatchOutcome)> + 'a {
        let members = self.index.peers(t);
        let m = members.len();
        let (r, cells) = match self.index.fingerprint(t).and_then(|fp| self.cells.get(fp)) {
            Some(cells) => (
                members
                    .binary_search(&t)
                    .expect("a slot is in its own bucket"),
                cells.as_slice(),
            ),
            None => (0, &[][..]),
        };
        let start = r * m;
        members
            .iter()
            .enumerate()
            .filter(move |&(col, _)| col != r)
            .map(move |(col, &c)| (c, self.outcome(t, c, report, cells[start + col])))
    }

    /// The outcome of `(t, c)`: its exception if it has one, else the cell
    /// decoded under the target's report.
    fn outcome(&self, t: usize, c: usize, report: &Generation, cell: u32) -> MatchOutcome {
        match self.exceptions.get(&(t, c)) {
            Some(outcome) => outcome.clone(),
            None => decode(report, cell),
        }
    }

    /// Heap bytes the store holds for verdicts: the matrices, their map and
    /// the exceptions map (the index is bucket membership, not verdicts).
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let matrices: usize = self
            .cells
            .values()
            .map(|c| c.capacity() * size_of::<u32>())
            .sum();
        // One control byte per bucket of each hash table.
        let map = self.cells.capacity() * (size_of::<(PartitionFingerprint, Vec<u32>)>() + 1);
        let exceptions =
            self.exceptions.capacity() * (size_of::<((usize, usize), MatchOutcome)>() + 1);
        matrices + map + exceptions
    }
}

/// The outcome a cell of `agreeing` decodes to under the target's report:
/// the report's incomparability if it failed or holds no examples, else the
/// verdict over its `examples.len()`.
fn decode(report: &Generation, agreeing: u32) -> MatchOutcome {
    match report {
        Err(e) => MatchOutcome::Incomparable(e.to_string()),
        Ok(r) if r.examples.is_empty() => {
            MatchOutcome::Incomparable(GenerationError::no_examples().to_string())
        }
        Ok(r) => MatchOutcome::Verdict(MatchVerdict::from_counts(
            agreeing as usize,
            r.examples.len(),
        )),
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

#[cfg(test)]
mod tests {
    use super::*;
    use dex_pool::build_text_pool;
    use dex_universe::scale::{build_scaled, ScalePlan};

    /// The store's own heap — matrices, their map, the exceptions map —
    /// stays within 8 bytes per stored verdict on a scaled world, after
    /// bootstrap and after a withdrawal re-lays the touched buckets.
    #[test]
    fn verdict_store_heap_is_at_most_8_bytes_per_verdict() {
        let world = build_scaled(&ScalePlan::new(1_000, 3));
        let pool = build_text_pool(&world.universe.ontology, 4, 3);
        let mut engine =
            IncrementalPipeline::bootstrap(world.universe, pool, GenerationConfig::default());
        let per_verdict =
            |e: &IncrementalPipeline| e.store.heap_bytes() as f64 / e.store.len() as f64;
        assert!(
            engine.store.len() > 10 * engine.ids.len() / 2,
            "buckets must be real"
        );
        assert!(engine.store.exceptions.is_empty());
        let bootstrapped = per_verdict(&engine);
        assert!(
            bootstrapped <= 8.0,
            "{bootstrapped:.2} B per verdict after bootstrap"
        );

        let withdraw: Vec<Delta> = engine
            .ids
            .iter()
            .step_by(10)
            .map(|id| Delta::ModuleWithdraw { id: id.clone() })
            .collect();
        engine.apply(&withdraw);
        let withdrawn = per_verdict(&engine);
        assert!(
            withdrawn <= 8.0,
            "{withdrawn:.2} B per verdict after a withdrawal"
        );
    }

    /// An outcome the cell encoding does not reproduce — here an
    /// incomparability inside a bucket, as a blocking bug would produce —
    /// is kept verbatim, read back by `row`, and dropped once the
    /// pair is rewritten with an encodable outcome or its slot moves.
    #[test]
    fn verdict_store_keeps_outcomes_its_cells_cannot_encode() {
        let world = build_scaled(&ScalePlan::new(200, 3));
        let pool = build_text_pool(&world.universe.ontology, 4, 3);
        let mut engine =
            IncrementalPipeline::bootstrap(world.universe, pool, GenerationConfig::default());
        let (t, c) = (0..engine.ids.len())
            .find_map(|t| {
                let peers = engine.store.index.peers(t);
                let c = peers.iter().copied().find(|&c| c != t)?;
                engine.reports[t].is_ok().then_some((t, c))
            })
            .expect("some bucket holds two members");
        let report = Arc::clone(&engine.reports[t]);
        let stored = |e: &IncrementalPipeline| {
            e.store
                .row(t, &report)
                .find_map(|(p, o)| (p == c).then_some(o))
                .expect("the pair is stored")
        };
        let truth = stored(&engine);
        assert!(matches!(truth, MatchOutcome::Verdict(_)));

        let odd = MatchOutcome::Incomparable("not encodable".to_string());
        engine.store.write_row(t, &report, vec![(c, odd.clone())]);
        assert_eq!(engine.store.exceptions.len(), 1);
        assert_eq!(stored(&engine), odd);

        engine.store.write_row(t, &report, vec![(c, truth.clone())]);
        assert!(engine.store.exceptions.is_empty());
        assert_eq!(stored(&engine), truth);

        engine.store.write_row(t, &report, vec![(c, odd)]);
        engine.store.relocate(&[(c, None)]);
        assert!(
            engine.store.exceptions.is_empty(),
            "a moved slot takes its exceptions along"
        );
    }
}
