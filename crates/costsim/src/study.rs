//! Multi-start studies replicating the paper's methodology.
//!
//! Sec. 6.3: "For each scheme and bidding model considered, we present
//! the average cost (relative to full on-demand price) across 1000
//! randomly chosen day/time starting points in each zone." This module
//! generates a long synthetic multi-market history, trains β on an
//! early window (the paper trains on March–June and evaluates on
//! June–August), and replays each scheme from many random starts in the
//! evaluation window.

use proteus_bidbrain::BetaEstimator;
use proteus_market::{
    catalog, CloudProvider, MarketFaultPlan, MarketModel, TraceGenerator, TraceSet, UsageBreakdown,
};
use proteus_simtime::rng::seeded_stream;
use proteus_simtime::{SimDuration, SimTime};
use rand::Rng;

use proteus_obs::{CostEvent, Event, Recorder};

use crate::executor::StudyExecutor;
use crate::scheme::{JobSpec, Scheme, SchemeKind};
use crate::sim::{run_positioned, SimOutcome};
use std::sync::{Arc, OnceLock};

/// Study parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// Experiment seed (traces, start sampling).
    pub seed: u64,
    /// Length of the β-training window.
    pub train_days: u64,
    /// Length of the evaluation window random starts are drawn from.
    pub eval_days: u64,
    /// Number of random starting points.
    pub starts: usize,
    /// Job length in on-demand-fleet hours (2 or 20 in the paper).
    pub job_hours: f64,
    /// Market model for the synthetic region.
    pub market_model: MarketModel,
    /// Simulation horizon per job (jobs not finished by then count as
    /// incomplete).
    pub max_job_hours: f64,
    /// Provider-side fault regimes installed in every job simulation.
    /// `None` (the default, and what absent-field deserialization
    /// yields) keeps the study bit-identical to the pristine market.
    pub market_faults: Option<MarketFaultPlan>,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 1,
            train_days: 14,
            eval_days: 28,
            starts: 100,
            job_hours: 2.0,
            market_model: MarketModel::default(),
            max_job_hours: 96.0,
            market_faults: None,
        }
    }
}

impl StudyConfig {
    /// Validates the sampling: a study draws at least one start, from an
    /// evaluation window at least a day long.
    pub fn validate(&self) -> Result<(), String> {
        if self.starts == 0 {
            return Err("a study needs at least one start".into());
        }
        if self.eval_days == 0 {
            return Err("the evaluation window must span at least one day".into());
        }
        Ok(())
    }
}

/// Aggregated result of one scheme across all starts.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyResult {
    /// Scheme label.
    pub scheme: String,
    /// Mean cost in dollars per job.
    pub mean_cost: f64,
    /// 10th-percentile cost across starts (a lucky market window).
    pub cost_p10: f64,
    /// 90th-percentile cost across starts (an unlucky market window).
    pub cost_p90: f64,
    /// Mean cost as a percentage of the all-on-demand baseline.
    pub cost_pct_of_on_demand: f64,
    /// Mean runtime in hours.
    pub mean_runtime_hours: f64,
    /// Mean evictions per job.
    pub mean_evictions: f64,
    /// Accumulated machine-hours across all runs.
    pub usage: UsageBreakdown,
    /// Fraction of runs that completed within the horizon.
    pub completion_rate: f64,
}

/// Shared study environment: traces + trained β + sampled starts.
pub struct StudyEnv {
    /// The synthetic price history.
    pub traces: TraceSet,
    /// β trained on the training window.
    pub beta: BetaEstimator,
    /// Random evaluation start instants.
    pub starts: Vec<SimTime>,
    /// The on-demand anchor market.
    pub on_demand_market: proteus_market::MarketKey,
    config: StudyConfig,
    /// Lazily simulated all-on-demand baseline, shared by every
    /// `run_scheme` call (the four-scheme comparison needs it once, not
    /// four times).
    baseline: OnceLock<SimOutcome>,
}

impl StudyEnv {
    /// Builds the environment for a configuration.
    ///
    /// # Panics
    ///
    /// Panics with [`StudyConfig::validate`]'s message on an invalid
    /// configuration.
    pub fn new(config: StudyConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid study config: {e}");
        }
        let keys = catalog::paper_markets();
        let total_days = config.train_days + config.eval_days;
        let horizon = SimDuration::from_hours(24 * total_days + config.max_job_hours as u64 + 1);
        let gen = TraceGenerator::new(config.seed, config.market_model.clone());
        let traces = gen.generate_set(&keys, horizon);

        let mut beta = BetaEstimator::new();
        let train_end = SimTime::from_hours(24 * config.train_days);
        for k in &keys {
            // `generate_set` produced exactly one trace per key above.
            #[allow(clippy::expect_used)]
            beta.train(
                *k,
                traces.get(k).expect("trace generated"),
                SimTime::EPOCH,
                train_end,
                SimDuration::from_mins(30),
                &BetaEstimator::default_deltas(),
            );
        }

        let mut rng = seeded_stream(config.seed, 0x57A7);
        let eval_start = 24 * config.train_days;
        let eval_end = 24 * total_days;
        let starts: Vec<SimTime> = (0..config.starts)
            .map(|_| {
                let h = rng.gen_range((eval_start * 60)..(eval_end * 60));
                SimTime::EPOCH + SimDuration::from_mins(h)
            })
            .collect();

        StudyEnv {
            traces,
            beta,
            starts,
            on_demand_market: keys[0],
            config,
            baseline: OnceLock::new(),
        }
    }

    /// The job spec for this study.
    pub fn job(&self) -> JobSpec {
        JobSpec::cluster_b_job(self.config.job_hours, self.on_demand_market)
    }

    /// The simulation horizon per job.
    fn horizon(&self) -> SimDuration {
        SimDuration::from_hours(self.config.max_job_hours as u64)
    }

    /// The all-on-demand baseline for one job, simulated at most once
    /// per environment and cached.
    pub fn on_demand_baseline(&self) -> &SimOutcome {
        self.baseline.get_or_init(|| {
            let scheme = Scheme {
                kind: SchemeKind::AllOnDemand { machines: 128 },
                job: self.job(),
            };
            let start = self.starts[0];
            self.run_from(&scheme, self.market_at(start), start, None)
        })
    }

    /// Aggregates per-start outcomes (in start order) into a result.
    fn aggregate<'o>(
        &self,
        kind: &SchemeKind,
        outcomes: impl ExactSizeIterator<Item = &'o SimOutcome>,
    ) -> StudyResult {
        let baseline = self.on_demand_baseline().cost;
        let mut costs: Vec<f64> = Vec::with_capacity(outcomes.len());
        let mut runtime_sum = 0.0;
        let mut evict_sum = 0.0;
        let mut usage = UsageBreakdown::default();
        let mut completed = 0usize;
        for out in outcomes {
            costs.push(out.cost);
            runtime_sum += out.runtime.as_hours_f64();
            evict_sum += f64::from(out.evictions);
            usage.accumulate(&out.usage);
            completed += usize::from(out.completed);
        }
        let n = costs.len() as f64;
        let cost_sum: f64 = costs.iter().sum();
        // Costs come from the billing account, which only ever adds
        // finite trace prices.
        #[allow(clippy::expect_used)]
        costs.sort_by(|a, b| a.partial_cmp(b).expect("finite costs"));
        let pct = |q: f64| -> f64 {
            let idx = ((costs.len() as f64 - 1.0) * q).round() as usize;
            costs[idx]
        };
        StudyResult {
            scheme: kind.label().to_string(),
            mean_cost: cost_sum / n,
            cost_p10: pct(0.10),
            cost_p90: pct(0.90),
            cost_pct_of_on_demand: 100.0 * (cost_sum / n) / baseline.max(1e-9),
            mean_runtime_hours: runtime_sum / n,
            mean_evictions: evict_sum / n,
            usage,
            completion_rate: completed as f64 / n,
        }
    }

    /// Runs one scheme across every start on the calling thread.
    pub fn run_scheme(&self, kind: SchemeKind) -> StudyResult {
        self.run_scheme_with(kind, &StudyExecutor::serial())
    }

    /// Runs one scheme across every start, fanning the independent job
    /// simulations over `exec`'s thread pool. Results are aggregated in
    /// start order, so the output is identical to [`Self::run_scheme`]
    /// whatever the thread count.
    pub fn run_scheme_with(&self, kind: SchemeKind, exec: &StudyExecutor) -> StudyResult {
        let (mut results, ()) = self.fan_out(&[kind], exec, |scheme, market, start, _| {
            (self.run_from(scheme, market, start, None), ())
        });
        results.remove(0)
    }

    /// Runs the four-scheme comparison, fanning the starts over `exec`'s
    /// pool: one task per start runs its four schemes' jobs.
    pub fn run_comparison_with(&self, exec: &StudyExecutor) -> Vec<StudyResult> {
        let (results, ()) = self.fan_out(&paper_schemes(), exec, |scheme, market, start, _| {
            (self.run_from(scheme, market, start, None), ())
        });
        results
    }

    /// Like [`Self::run_comparison_with`], but every `(scheme, start)`
    /// job records onto its own observability [`Recorder`]; the
    /// recorders come back **in task-index order**, un-rendered, so the
    /// recording cost can be measured (and paid) separately from the
    /// JSONL export cost.
    pub fn run_comparison_recorders(
        &self,
        exec: &StudyExecutor,
    ) -> (Vec<StudyResult>, Vec<Arc<Recorder>>) {
        self.fan_out(&paper_schemes(), exec, |scheme, market, start, t| {
            let rec = Arc::new(Recorder::new());
            rec.record(
                start,
                Event::Cost(CostEvent::RunStart {
                    scheme: scheme.kind.label().to_string(),
                    index: t as u64,
                    start_ms: start.as_millis(),
                }),
            );
            (
                self.run_from(scheme, market, start, Some(Arc::clone(&rec))),
                rec,
            )
        })
    }

    /// Simulates every `(scheme, start)` pair over `exec`'s pool, one
    /// task per start: the start's market is positioned once and each
    /// scheme's job runs on a clone of it. Task `t` is scheme
    /// `t / starts` from start `t % starts`; each scheme's outcomes are
    /// aggregated in start order. `run` simulates one task on its
    /// market; what it returns beside the outcome comes back in task
    /// order.
    fn fan_out<T: Send + Sync, C: Default + Extend<T>>(
        &self,
        kinds: &[SchemeKind],
        exec: &StudyExecutor,
        run: impl Fn(&Scheme, CloudProvider<'_>, SimTime, usize) -> (SimOutcome, T) + Sync,
    ) -> (Vec<StudyResult>, C) {
        // Warm the shared baseline before fanning out so workers never
        // race to simulate it.
        let _ = self.on_demand_baseline();
        let job = self.job();
        let schemes: Vec<Scheme> = (kinds.iter())
            .map(|kind| Scheme {
                kind: kind.clone(),
                job,
            })
            .collect();
        let n = self.starts.len();
        let per_start = exec.run_indexed(n, |i| {
            let start = self.starts[i];
            let market = self.market_at(start);
            (schemes.iter().enumerate())
                .map(|(s, scheme)| run(scheme, market.clone(), start, s * n + i))
                .collect::<Vec<_>>()
        });
        let results = (kinds.iter().enumerate())
            .map(|(s, kind)| self.aggregate(kind, per_start.iter().map(|jobs| &jobs[s].0)))
            .collect();
        // Task order: every start of the first scheme, then the next.
        let mut columns: Vec<_> = (per_start.into_iter())
            .map(|jobs| jobs.into_iter().map(|(_, kept)| kept))
            .collect();
        let mut kept = C::default();
        for _ in kinds {
            kept.extend(columns.iter_mut().filter_map(Iterator::next));
        }
        (results, kept)
    }

    /// Simulates one job of this study from `start` on `market`,
    /// [`market_at`](Self::market_at)`(start)` or a clone of it,
    /// recording onto `rec` if given.
    fn run_from(
        &self,
        scheme: &Scheme,
        market: CloudProvider<'_>,
        start: SimTime,
        rec: Option<Arc<Recorder>>,
    ) -> SimOutcome {
        run_positioned(scheme, market, &self.beta, start, self.horizon(), rec)
    }

    /// This study's market at `start`, with its fault plan installed:
    /// what every scheme's job sees until its first request, since
    /// nothing before a request draws from the plan's streams.
    fn market_at(&self, start: SimTime) -> CloudProvider<'_> {
        let mut market = CloudProvider::new(&self.traces);
        if let Some(plan) = &self.config.market_faults {
            market.set_fault_plan(plan.clone());
        }
        // The provider starts at the epoch, and a start is not earlier;
        // `advance_to` only errors on time moving backwards.
        #[allow(clippy::expect_used)]
        market.advance_to(start).expect("time moves forward");
        market
    }

    /// [`Self::run_comparison_recorders`] plus the export: the per-job
    /// JSONL timelines are concatenated **in task-index order**.
    ///
    /// Each job's segment is delimited by `costsim.run_start` /
    /// `costsim.run_end` records and carries its own `seq` numbering.
    /// Because each task's recorder is task-local and tasks are merged
    /// in index order, the returned string is byte-identical for any
    /// thread count — and across reruns of the same config.
    pub fn run_comparison_recorded(&self, exec: &StudyExecutor) -> (Vec<StudyResult>, String) {
        let (results, recorders) = self.run_comparison_recorders(exec);
        let mut jsonl = String::new();
        for rec in &recorders {
            rec.append_jsonl(&mut jsonl);
        }
        (results, jsonl)
    }
}

/// The paper's four-scheme comparison (Figs. 8/9), in table order.
fn paper_schemes() -> [SchemeKind; 4] {
    [
        SchemeKind::AllOnDemand { machines: 128 },
        SchemeKind::paper_checkpoint(),
        SchemeKind::paper_standard_agileml(),
        SchemeKind::paper_proteus(),
    ]
}

/// Runs the full four-scheme comparison (the paper's Figs. 8/9 setup)
/// on the calling thread.
///
/// # Panics
///
/// Panics with [`StudyConfig::validate`]'s message on an invalid
/// configuration.
pub fn run_study(config: StudyConfig) -> Vec<StudyResult> {
    run_study_with(config, &StudyExecutor::serial())
}

/// Runs the full four-scheme comparison over a thread pool. The result
/// is identical to [`run_study`] for any thread count: each `(scheme,
/// start)` simulation is an independent deterministic task, and
/// aggregation always happens in (scheme, start) order.
///
/// # Panics
///
/// Panics with [`StudyConfig::validate`]'s message on an invalid
/// configuration.
pub fn run_study_with(config: StudyConfig, exec: &StudyExecutor) -> Vec<StudyResult> {
    let env = StudyEnv::new(config);
    match proteus_obs::export_path() {
        Some(path) => {
            let (results, jsonl) = env.run_comparison_recorded(exec);
            if let Err(e) = std::fs::write(&path, jsonl) {
                // Surface the failure without failing the study: the
                // numeric results are still valid, only the export is
                // lost.
                eprintln!("warning: could not write {}: {e}", path);
            }
            results
        }
        None => env.run_comparison_with(exec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> StudyConfig {
        StudyConfig {
            seed: 5,
            train_days: 5,
            eval_days: 7,
            starts: 12,
            job_hours: 2.0,
            market_model: MarketModel::default(),
            max_job_hours: 48.0,
            market_faults: None,
        }
    }

    #[test]
    #[should_panic(expected = "invalid study config: a study needs at least one start")]
    fn a_study_without_starts_is_refused() {
        run_study(StudyConfig {
            starts: 0,
            ..small_config()
        });
    }

    #[test]
    #[should_panic(
        expected = "invalid study config: the evaluation window must span at least one day"
    )]
    fn a_study_without_an_evaluation_window_is_refused() {
        run_study(StudyConfig {
            eval_days: 0,
            ..small_config()
        });
    }

    #[test]
    fn study_reproduces_the_paper_ordering() {
        let results = run_study(small_config());
        assert_eq!(results.len(), 4);
        let by_label = |l: &str| {
            results
                .iter()
                .find(|r| r.scheme == l)
                .unwrap_or_else(|| panic!("{l} missing"))
        };
        let od = by_label("AllOnDemand");
        let ckpt = by_label("Standard+Checkpoint");
        let agile = by_label("Standard+AgileML");
        let proteus = by_label("Proteus");

        // Everyone finishes.
        for r in &results {
            assert!(
                r.completion_rate > 0.9,
                "{} completion {}",
                r.scheme,
                r.completion_rate
            );
        }
        // Percentiles bracket the mean sensibly.
        for r in &results {
            assert!(r.cost_p10 <= r.mean_cost + 1e-9, "{r:?}");
            assert!(r.cost_p90 + 1e-9 >= r.mean_cost * 0.5, "{r:?}");
            assert!(r.cost_p10 <= r.cost_p90);
        }
        // Cost ordering: Proteus < Standard+AgileML < Standard+Checkpoint
        // < AllOnDemand.
        assert!(
            proteus.mean_cost < agile.mean_cost,
            "{proteus:?} vs {agile:?}"
        );
        assert!(agile.mean_cost < ckpt.mean_cost, "{agile:?} vs {ckpt:?}");
        assert!(ckpt.mean_cost < od.mean_cost, "{ckpt:?} vs {od:?}");
        // Headline magnitude: Proteus saves most of the on-demand cost.
        assert!(
            proteus.cost_pct_of_on_demand < 35.0,
            "Proteus at {}% of on-demand",
            proteus.cost_pct_of_on_demand
        );
        // Checkpointing is the slowest spot scheme.
        assert!(ckpt.mean_runtime_hours > agile.mean_runtime_hours);
    }

    #[test]
    fn proteus_collects_free_compute() {
        let env = StudyEnv::new(small_config());
        let proteus = env.run_scheme(SchemeKind::paper_proteus());
        assert!(
            proteus.usage.free_fraction() > 0.02,
            "some free compute expected, got {}",
            proteus.usage.free_fraction()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_study(small_config());
        let b = run_study(small_config());
        assert_eq!(a, b);
    }
}
