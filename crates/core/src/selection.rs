//! The Fig. 4 layer-selection methodology.
//!
//! Given a trained model and its activation-memory sites, the search
//!
//! 1. sweeps the number of 6T cells (1..=8) per site at a fixed `Vdd`,
//!    launching a fixed-strength FGSM attack against each configuration
//!    (gradients come from the *clean* model — the paper excludes bit-error
//!    noise from the attacker's gradient computation);
//! 2. keeps each site's best configuration, and shortlists the sites whose
//!    best adversarial accuracy beats the noise-free baseline by more than
//!    a threshold (5 % in the paper);
//! 3. evaluates combinations of shortlisted sites and returns the best one
//!    as a [`NoisePlan`] — the row printed in Tables I and II.
//!
//! ## Execution model
//!
//! Every candidate is attacked in SH mode, so every candidate sees the same
//! adversarial images. The search crafts them once, before any candidate
//! runs: [`craft_attack`] on the clean model, once for the full set and,
//! unless the probe is the full set's first whole batches (`search_subset`
//! a multiple of `batch`, whose bits it then slices out), once for the probe
//! set, on the pool across batches. The baselines, every sweep and
//! combination candidate and the final plan are then scored on those
//! tensors with [`evaluate_crafted`], at the crafting batch size (an SRAM
//! hook quantizes per tensor). Each outcome equals a per-candidate
//! [`ahw_attacks::evaluate_attack`] bit for bit; a search makes one
//! gradient pass per batch it crafts, however many candidates it scores.
//!
//! A candidate is the clean model with hooks from one site onwards, so the
//! layers in front of its first hook repeat the clean model's work. The
//! search runs them once: it computes the clean model's activations of both
//! probe sets (clean and adversarial) at every distinct top-level layer
//! holding a site, walking the layers in ascending order batch by batch at
//! the scoring batch's boundaries, and scores each probe candidate on only
//! its hooked model's layers from its first hooked layer on
//! ([`Sequential::split_off`]); a combination starts from its lowest site
//! layer. An `Eval` forward is a plain loop over the layers, the skipped
//! layers are the clean model's and act on each image on its own, and the
//! suffix receives the same batch tensors, so every outcome is bit for bit
//! the whole hooked model's. The activations are held for the whole search:
//! two probe sets at every site layer. The baselines and the final
//! full-set score run the whole model.
//!
//! The `(site, 6T-count)` candidates of step 1 and the subset candidates of
//! step 3's exhaustive phase are mutually independent, so they are scored
//! concurrently on the [`ahw_tensor::pool`] worker pool
//! ([`pool::parallel_map`]); each candidate's scoring checks a
//! `PlanCache` arena out of the `ahw-attacks` plan pool for its batches.
//! Results come back **in candidate order** and every argmax folds that
//! fixed order with a strict `>` comparison, so the selected plan and all
//! reported accuracies are bit-identical at any `AHW_THREADS` value. The
//! greedy fallback of step 3 is sequential by construction (each acceptance
//! changes the next trial), but its candidate scoring still parallelizes
//! internally across batches.
//!
//! ## Resumability
//!
//! With [`SelectionConfig::journal`] set, every completed candidate is
//! appended to a write-ahead JSON journal ([`crate::journal`]); an
//! interrupted Table I/II run replays completed candidates on restart
//! instead of re-attacking them, and the bit-exact journal payload makes
//! the resumed outcome identical to an uninterrupted run. The journal's
//! fingerprint digests the model's state tensors, every image value and
//! label and the sites beside the search parameters, so another model's or
//! image set's journal is discarded. It leaves out the shortlist
//! threshold, which no record depends on: a relaxed-threshold rerun over
//! the same journal replays the sweep. Progress is
//! reported through a tty-aware status line ([`telemetry::Progress`]) and
//! the `core.search.*` telemetry counters/spans.

use crate::hardware::{apply_noise_plan, NoisePlan, PlannedSite};
use crate::journal::SearchJournal;
use ahw_attacks::{craft_attack, evaluate_crafted, Attack, AttackOutcome};
use ahw_nn::archs::ModelSpec;
use ahw_nn::{Mode, NnError, Sequential};
use ahw_sram::{HybridMemoryConfig, HybridWordConfig, SramError, WORD_BITS};
use ahw_telemetry as telemetry;
use ahw_tensor::{pool, Tensor};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Candidate evaluations completed this process (journal replays excluded).
static CANDIDATES_DONE: telemetry::LazyCounter =
    telemetry::LazyCounter::new("core.search.candidates_done");
/// Candidate evaluations replayed from a previous run's journal.
static RESUMED: telemetry::LazyCounter = telemetry::LazyCounter::new("core.search.resumed");

/// Parameters of the Fig. 4 search.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionConfig {
    /// Supply voltage held fixed during the search (0.68 V in the paper).
    pub vdd: f32,
    /// The probe attack (the paper uses FGSM at a fixed ε).
    pub attack: Attack,
    /// Shortlist threshold in accuracy points (paper: 5 %).
    pub improvement_threshold: f32,
    /// Upper bound on exhaustive combination search; more shortlisted sites
    /// than this fall back to greedy forward selection.
    pub max_exhaustive_sites: usize,
    /// Evaluation batch size.
    pub batch: usize,
    /// Number of probe images used during the per-site sweep and the
    /// combination search (0 = all). The baseline and the final combined
    /// outcome are always measured on the full set; the sweep only needs
    /// enough resolution to *rank* configurations, so a small probe keeps
    /// the 8·#sites attack evaluations tractable.
    pub search_subset: usize,
    /// Seed for the injected-noise streams.
    pub seed: u64,
    /// Write-ahead journal path (e.g. `results/table1_search.jsonl`). When
    /// set, completed candidates are recorded as they finish and an
    /// interrupted search resumes from them; `None` disables persistence.
    pub journal: Option<PathBuf>,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            vdd: 0.68,
            attack: Attack::fgsm(0.1),
            improvement_threshold: 0.05,
            max_exhaustive_sites: 4,
            batch: 64,
            search_subset: 64,
            seed: 0x5E1EC7,
            journal: None,
        }
    }
}

/// The best configuration found for one site during step 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteResult {
    /// Index into [`ModelSpec::sites`].
    pub site_index: usize,
    /// The site's paper-style label.
    pub label: String,
    /// Best hybrid memory configuration for this site.
    pub config: HybridMemoryConfig,
    /// Adversarial accuracy with noise at this site only.
    pub adversarial_accuracy: f32,
    /// Whether the site beat the baseline by more than the threshold.
    pub shortlisted: bool,
}

/// The full outcome of the methodology.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionOutcome {
    /// Noise-free baseline under the probe attack.
    pub baseline: AttackOutcome,
    /// Step-1 result per site, in site order.
    pub per_site: Vec<SiteResult>,
    /// The winning combination as a deployable plan.
    pub plan: NoisePlan,
    /// The winning combination's accuracies under the probe attack.
    pub combined: AttackOutcome,
}

fn memory_config(six_t: u8, vdd: f32) -> Result<HybridMemoryConfig, SramError> {
    HybridMemoryConfig::new(HybridWordConfig::new(WORD_BITS - six_t, six_t)?, vdd)
}

fn to_nn_err(e: SramError) -> NnError {
    NnError::BadConfig(format!("hybrid memory config: {e}"))
}

/// Order-sensitive FNV-1a digest over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    fn fold_f32s(&mut self, values: &[f32]) {
        for &v in values {
            self.fold(u64::from(v.to_bits()));
        }
    }
}

/// Identity of one search under the journal: everything a recorded outcome
/// depends on (the model's state tensors, every image value and label, the
/// sites and the search parameters), so a stale journal can never be
/// replayed into a different search. The shortlist threshold is left out:
/// no record depends on it, so a relaxed-threshold rerun replays the sweep.
fn search_fingerprint(
    spec: &ModelSpec,
    images: &Tensor,
    labels: &[usize],
    config: &SelectionConfig,
) -> String {
    let mut digest = Fnv::new();
    for &l in labels {
        digest.fold(l as u64);
    }
    digest.fold_f32s(images.as_slice());
    for site in &spec.sites {
        digest.fold(site.site.layer as u64);
        digest.fold(site.site.slot as u64);
    }
    // weights, biases and batch-norm running statistics, by name
    spec.model.clone().visit_state(&mut |name, t| {
        for b in name.bytes() {
            digest.fold(u64::from(b));
        }
        digest.fold(t.len() as u64);
        digest.fold_f32s(t.as_slice());
    });
    format!(
        "v2 arch={} classes={} sites={} n={} data={:016x} vdd={} attack={:?} maxex={} batch={} subset={} seed={:x}",
        spec.name,
        spec.num_classes,
        spec.sites.len(),
        images.dims()[0],
        digest.0,
        config.vdd,
        config.attack,
        config.max_exhaustive_sites,
        config.batch,
        config.search_subset,
        config.seed,
    )
}

/// Rows `lo..hi` (along the first axis) of `t`, copied.
fn rows(t: &Tensor, lo: usize, hi: usize) -> Result<Tensor, NnError> {
    let item = t.len() / t.dims()[0].max(1);
    let mut dims = t.dims().to_vec();
    dims[0] = hi - lo;
    Ok(Tensor::from_vec(
        t.as_slice()[lo * item..hi * item].to_vec(),
        &dims,
    )?)
}

/// The clean model's `Eval` activations of `set` at each top-level layer of
/// `layers` (ascending, distinct): entry `k` holds the inputs of layer
/// `layers[k]`. Batches follow `batch`'s boundaries, and each batch walks
/// the layers once, so every layer runs once per image.
fn activations_at(
    model: &Sequential,
    set: &Tensor,
    layers: &[usize],
    batch: usize,
) -> Result<Vec<Tensor>, NnError> {
    let n = set.dims()[0];
    let per_batch: Vec<Result<Vec<Tensor>, NnError>> =
        pool::parallel_map(n.div_ceil(batch), 1, |ci| {
            let x = rows(set, ci * batch, ((ci + 1) * batch).min(n))?;
            let (mut rest, mut at) = (model.clone(), 0);
            let mut out: Vec<Tensor> = Vec::with_capacity(layers.len());
            for &layer in layers {
                let tail = rest.split_off(layer - at)?;
                let next = rest.forward(out.last().unwrap_or(&x), Mode::Eval)?;
                out.push(next);
                (rest, at) = (tail, layer);
            }
            Ok(out)
        });
    let mut per_batch: Vec<Vec<Tensor>> = per_batch.into_iter().collect::<Result<_, _>>()?;
    if per_batch.len() == 1 {
        return Ok(per_batch.swap_remove(0));
    }
    (0..layers.len())
        .map(|k| {
            let mut dims = per_batch[0][k].dims().to_vec();
            dims[0] = n;
            let data = per_batch
                .iter()
                .flat_map(|b| b[k].as_slice())
                .copied()
                .collect();
            Ok(Tensor::from_vec(data, &dims)?)
        })
        .collect()
}

/// Canonical journal key for a combination of sites (sorted, in plan form).
fn combo_key(site_indices: &[usize]) -> String {
    let mut sorted = site_indices.to_vec();
    sorted.sort_unstable();
    let joined = sorted
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    format!("combo sites={joined}")
}

/// Looks `key` up in the journal, evaluating (and recording) on a miss.
/// Replays bump `core.search.resumed`; fresh evaluations bump
/// `core.search.candidates_done`.
fn cached_eval(
    journal: &SearchJournal,
    key: &str,
    eval: impl FnOnce() -> Result<AttackOutcome, NnError>,
) -> Result<AttackOutcome, NnError> {
    if let Some(outcome) = journal.lookup(key) {
        RESUMED.incr();
        return Ok(outcome);
    }
    let outcome = eval()?;
    journal.record(key, outcome)?;
    CANDIDATES_DONE.incr();
    Ok(outcome)
}

/// Runs the Fig. 4 methodology. See the module docs for the execution
/// model (pool-parallel candidates, deterministic reductions) and the
/// journal-backed resume semantics.
///
/// # Errors
///
/// Propagates model/attack errors; [`NnError::BadConfig`] for an invalid
/// voltage, a model without activation-memory sites, or a journal I/O
/// failure.
pub fn select_noise_sites(
    spec: &ModelSpec,
    images: &Tensor,
    labels: &[usize],
    config: &SelectionConfig,
) -> Result<SelectionOutcome, NnError> {
    if spec.sites.is_empty() {
        return Err(NnError::BadConfig(format!(
            "model '{}' has no activation-memory sites to search",
            spec.name
        )));
    }
    let _span = telemetry::span_labeled("core.search", || {
        format!("sites={} n={}", spec.sites.len(), images.dims()[0])
    });
    let journal = match &config.journal {
        Some(path) => SearchJournal::open(path, &search_fingerprint(spec, images, labels, config))?,
        None => SearchJournal::in_memory(),
    };
    let progress = telemetry::Progress::stderr();

    // craft once per set, score every candidate on it (module docs)
    let n = images.dims()[0];
    let probe_n = if config.search_subset == 0 {
        n
    } else {
        config.search_subset.min(n)
    };
    let craft =
        |x: &Tensor, y: &[usize]| craft_attack(&spec.model, x, y, config.attack, config.batch);
    let adversarial = craft(images, labels)?;
    // probe subset for the sweep (ranking only): the first `probe_n` images
    let (probe_images, probe_adversarial);
    let probe_labels = &labels[..probe_n];
    let (probe_x, probe_adv) = if probe_n == n {
        (images, &adversarial)
    } else {
        probe_images = rows(images, 0, probe_n)?;
        // whole batches are crafted from the same images, batch indices and
        // streams as the full set's first batches: reuse those bits
        probe_adversarial = if probe_n % config.batch == 0 {
            rows(&adversarial, 0, probe_n)?
        } else {
            craft(&probe_images, probe_labels)?
        };
        (&probe_images, &probe_adversarial)
    };
    let score_full =
        |model: &Sequential| evaluate_crafted(model, images, &adversarial, labels, config.batch);

    // every probe candidate runs from its first hooked layer on, fed the
    // clean model's activations there (module docs)
    let mut site_layers: Vec<usize> = spec.sites.iter().map(|s| s.site.layer).collect();
    site_layers.sort_unstable();
    site_layers.dedup();
    let (probe_x_at, probe_adv_at) = {
        let _span = telemetry::span_labeled("core.search.activations", || {
            format!("layers={}", site_layers.len())
        });
        let at = |set: &Tensor| activations_at(&spec.model, set, &site_layers, config.batch);
        (at(probe_x)?, at(probe_adv)?)
    };
    let score_probe_plan = |plan: &NoisePlan| -> Result<AttackOutcome, NnError> {
        let first = plan
            .sites
            .iter()
            .filter_map(|p| spec.sites.get(p.site_index))
            .map(|s| s.site.layer)
            .min();
        let k = first
            .and_then(|layer| site_layers.binary_search(&layer).ok())
            .ok_or_else(|| NnError::BadConfig("noise plan hooks no searched site".into()))?;
        let suffix = apply_noise_plan(spec, plan, config.seed)?.split_off(site_layers[k])?;
        evaluate_crafted(
            &suffix,
            &probe_x_at[k],
            &probe_adv_at[k],
            probe_labels,
            config.batch,
        )
    };

    // noise-free baseline: the software model scored on its own attack
    let baseline = cached_eval(&journal, "baseline full", || {
        let _span = telemetry::span("core.search.baseline");
        score_full(&spec.model)
    })?;
    let probe_baseline = if probe_n == n {
        baseline
    } else {
        cached_eval(&journal, "baseline probe", || {
            let _span = telemetry::span("core.search.baseline");
            evaluate_crafted(&spec.model, probe_x, probe_adv, probe_labels, config.batch)
        })?
    };

    // step 1: per-site sweep over 6T cell counts at fixed Vdd — all
    // (site, six_t) candidates are independent, so they run concurrently on
    // the worker pool; `parallel_map` returns outcomes in candidate order
    // and the per-site argmax below folds that fixed order.
    let candidates: Vec<(usize, u8)> = (0..spec.sites.len())
        .flat_map(|site_index| (1..=WORD_BITS).map(move |six_t| (site_index, six_t)))
        .collect();
    let sweep_done = AtomicUsize::new(0);
    let sweep_outcomes: Vec<Result<(HybridMemoryConfig, AttackOutcome), NnError>> = {
        let _span = telemetry::span_labeled("core.search.sweep", || {
            format!("candidates={}", candidates.len())
        });
        pool::parallel_map(candidates.len(), 1, |ci| {
            let (site_index, six_t) = candidates[ci];
            let _span = telemetry::span_labeled("core.search.candidate", || {
                format!("site={site_index} six_t={six_t}")
            });
            let mem = memory_config(six_t, config.vdd).map_err(to_nn_err)?;
            let outcome = cached_eval(
                &journal,
                &format!("sweep site={site_index} six_t={six_t}"),
                || {
                    score_probe_plan(&NoisePlan {
                        vdd: config.vdd,
                        sites: vec![PlannedSite {
                            site_index,
                            config: mem,
                        }],
                    })
                },
            )?;
            let done = sweep_done.fetch_add(1, Ordering::Relaxed) + 1;
            progress.update(&format!(
                "  fig4 search: sweep {done}/{} candidates ({})",
                candidates.len(),
                spec.sites[site_index].label
            ));
            Ok((mem, outcome))
        })
    };
    progress.finish();
    // first error in candidate order — deterministic regardless of which
    // worker hit it first
    let sweep_outcomes: Vec<(HybridMemoryConfig, AttackOutcome)> =
        sweep_outcomes.into_iter().collect::<Result<_, _>>()?;

    let mut per_site = Vec::with_capacity(spec.sites.len());
    for (site_index, site) in spec.sites.iter().enumerate() {
        // fixed-order argmax over this site's 6T counts (strict `>`: the
        // lowest winning 6T count is kept, matching the serial search)
        let mut best: Option<(HybridMemoryConfig, f32)> = None;
        for (cand, (mem, outcome)) in candidates.iter().zip(&sweep_outcomes) {
            if cand.0 != site_index {
                continue;
            }
            if best.is_none_or(|(_, acc)| outcome.adversarial_accuracy > acc) {
                best = Some((*mem, outcome.adversarial_accuracy));
            }
        }
        let (best_config, best_acc) = best.ok_or_else(|| {
            NnError::BadConfig(format!("no 6T count swept for site {site_index}"))
        })?;
        per_site.push(SiteResult {
            site_index,
            label: site.label.clone(),
            config: best_config,
            adversarial_accuracy: best_acc,
            shortlisted: best_acc
                > probe_baseline.adversarial_accuracy + config.improvement_threshold,
        });
    }

    // step 2: shortlisted sites with their best configurations
    let shortlisted: Vec<&SiteResult> = per_site.iter().filter(|s| s.shortlisted).collect();

    // step 3: combination search
    let evaluate_combo = |combo: &[&SiteResult]| -> Result<AttackOutcome, NnError> {
        let indices: Vec<usize> = combo.iter().map(|s| s.site_index).collect();
        let key = combo_key(&indices);
        let _span = telemetry::span_labeled("core.search.candidate", || key.clone());
        cached_eval(&journal, &key, || {
            score_probe_plan(&NoisePlan {
                vdd: config.vdd,
                sites: combo
                    .iter()
                    .map(|s| PlannedSite {
                        site_index: s.site_index,
                        config: s.config,
                    })
                    .collect(),
            })
        })
    };

    let (chosen, probe_combined) = if shortlisted.is_empty() {
        (Vec::new(), probe_baseline)
    } else if shortlisted.len() <= config.max_exhaustive_sites {
        // exhaustive over non-empty subsets: independent candidates, run
        // concurrently; the argmax folds mask order (strict `>`, so the
        // smallest winning mask is kept — identical to the serial scan)
        let _span = telemetry::span_labeled("core.search.combine", || {
            format!("exhaustive shortlist={}", shortlisted.len())
        });
        let masks: Vec<u32> = (1u32..(1 << shortlisted.len())).collect();
        let combos: Vec<Vec<&SiteResult>> = masks
            .iter()
            .map(|mask| {
                shortlisted
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| mask & (1 << k) != 0)
                    .map(|(_, s)| *s)
                    .collect()
            })
            .collect();
        let combine_done = AtomicUsize::new(0);
        let outcomes: Vec<Result<AttackOutcome, NnError>> =
            pool::parallel_map(combos.len(), 1, |i| {
                let outcome = evaluate_combo(&combos[i])?;
                let done = combine_done.fetch_add(1, Ordering::Relaxed) + 1;
                progress.update(&format!(
                    "  fig4 search: combinations {done}/{}",
                    combos.len()
                ));
                Ok(outcome)
            });
        progress.finish();
        let mut best: Option<(usize, AttackOutcome)> = None;
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let outcome = outcome?;
            if best
                .as_ref()
                .is_none_or(|(_, b)| outcome.adversarial_accuracy > b.adversarial_accuracy)
            {
                best = Some((i, outcome));
            }
        }
        let (best_idx, best_outcome) = best.ok_or_else(|| {
            NnError::BadConfig("no site combination evaluated in exhaustive search".into())
        })?;
        (combos[best_idx].clone(), best_outcome)
    } else {
        // greedy forward selection, best-gain-first: sequential by
        // construction (each acceptance changes the next trial), but every
        // trial's scoring still parallelizes over batches
        let _span = telemetry::span_labeled("core.search.combine", || {
            format!("greedy shortlist={}", shortlisted.len())
        });
        let mut remaining = shortlisted.clone();
        remaining.sort_by(|a, b| {
            b.adversarial_accuracy
                .partial_cmp(&a.adversarial_accuracy)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let total = remaining.len();
        let mut combo: Vec<&SiteResult> = Vec::new();
        let mut best_outcome = probe_baseline;
        for (done, candidate) in remaining.into_iter().enumerate() {
            let mut trial = combo.clone();
            trial.push(candidate);
            let outcome = evaluate_combo(&trial)?;
            progress.update(&format!("  fig4 search: greedy {}/{total}", done + 1));
            if outcome.adversarial_accuracy > best_outcome.adversarial_accuracy {
                combo = trial;
                best_outcome = outcome;
            }
        }
        progress.finish();
        if combo.is_empty() {
            // even singletons regressed in combination-eval; fall back to
            // the single best shortlisted site
            let top = *shortlisted
                .iter()
                .max_by(|a, b| {
                    a.adversarial_accuracy
                        .partial_cmp(&b.adversarial_accuracy)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .ok_or_else(|| NnError::BadConfig("empty shortlist in greedy fallback".into()))?;
            let outcome = evaluate_combo(&[top])?;
            (vec![top], outcome)
        } else {
            (combo, best_outcome)
        }
    };

    let plan = NoisePlan {
        vdd: config.vdd,
        sites: chosen
            .iter()
            .map(|s| PlannedSite {
                site_index: s.site_index,
                config: s.config,
            })
            .collect(),
    };
    // the reported combined outcome is measured on the *full* set
    let combined = if plan.sites.is_empty() {
        baseline
    } else if probe_n == n {
        probe_combined
    } else {
        let indices: Vec<usize> = plan.sites.iter().map(|s| s.site_index).collect();
        cached_eval(&journal, &format!("final {}", combo_key(&indices)), || {
            let _span = telemetry::span("core.search.final");
            score_full(&apply_noise_plan(spec, &plan, config.seed)?)
        })?
    };
    Ok(SelectionOutcome {
        baseline,
        per_site,
        plan,
        combined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahw_nn::archs;
    use ahw_tensor::rng::seeded;

    /// A tiny spec + synthetic batch so the full search runs in test time.
    fn tiny_setup() -> (ModelSpec, Tensor, Vec<usize>) {
        let spec = archs::vgg8(4, 0.0625, &mut seeded(1)).unwrap();
        let x = ahw_tensor::rng::uniform(&[24, 3, 32, 32], 0.0, 1.0, &mut seeded(2));
        let labels = (0..24).map(|i| i % 4).collect();
        (spec, x, labels)
    }

    fn fast_config() -> SelectionConfig {
        SelectionConfig {
            batch: 24,
            ..SelectionConfig::default()
        }
    }

    #[test]
    fn selection_runs_end_to_end() {
        let (spec, x, y) = tiny_setup();
        let out = select_noise_sites(&spec, &x, &y, &fast_config()).unwrap();
        assert_eq!(out.per_site.len(), spec.sites.len());
        for s in &out.per_site {
            assert!(!s.config.word().is_noise_free());
            assert!((0.0..=1.0).contains(&s.adversarial_accuracy));
        }
        // plan only contains shortlisted (or empty)
        for planned in &out.plan.sites {
            assert!(out.per_site[planned.site_index].shortlisted);
        }
        // the chosen combination can never be worse than baseline
        assert!(
            out.combined.adversarial_accuracy + 1e-6 >= out.baseline.adversarial_accuracy
                || !out.plan.sites.is_empty()
        );
    }

    #[test]
    fn untrained_model_yields_sane_baseline() {
        let (spec, x, y) = tiny_setup();
        let out = select_noise_sites(&spec, &x, &y, &fast_config()).unwrap();
        assert!((0.0..=1.0).contains(&out.baseline.clean_accuracy));
        assert!(out.baseline.adversarial_accuracy <= out.baseline.clean_accuracy + 0.5);
    }

    #[test]
    fn table_row_round_trips_through_plan() {
        let (spec, x, y) = tiny_setup();
        let out = select_noise_sites(&spec, &x, &y, &fast_config()).unwrap();
        let row = out.plan.table_row(&spec);
        assert_eq!(row.len(), spec.sites.len());
        let noisy = row.iter().filter(|c| *c != "H").count();
        assert_eq!(noisy, out.plan.sites.len());
    }

    #[test]
    fn zero_site_spec_is_bad_config_not_a_panic() {
        let (mut spec, x, y) = tiny_setup();
        spec.sites.clear();
        // library code must propagate the edge case, never abort
        match select_noise_sites(&spec, &x, &y, &fast_config()) {
            Err(NnError::BadConfig(msg)) => assert!(msg.contains("no activation-memory sites")),
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn combo_key_is_order_independent() {
        assert_eq!(combo_key(&[4, 1, 9]), combo_key(&[9, 4, 1]));
        assert_eq!(combo_key(&[2]), "combo sites=2");
        assert_eq!(combo_key(&[]), "combo sites=");
    }
}
