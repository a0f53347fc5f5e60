//! Deterministic assembly of the full performance database.

use std::sync::Mutex;

use datatrans_parallel::Parallelism;
use datatrans_rng::rngs::StdRng;
use datatrans_rng::{Rng, RngCore, SeedableRng};

use crate::benchmark::{spec_cpu2006, Benchmark};
use crate::catalog::{build_machines, build_scaled_machines};
use crate::characteristics::WorkloadCharacteristics;
use crate::database::{MachineIngest, PerfDatabase};
use crate::machine::Machine;
use crate::microarch::MicroArch;
use crate::perf_model::{execution_time_s, reference_time_s};
use crate::view::DatabaseView;
use crate::{DatasetError, Result};

/// Configuration of the dataset generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Master seed. Everything — machine jitter, measurement noise — is a
    /// pure function of this value.
    pub seed: u64,
    /// Standard deviation of multiplicative lognormal measurement noise on
    /// each score. SPEC run-to-run variation is on the order of 1–2%.
    pub noise_sigma: f64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            seed: 0xDA7A_72A5,
            noise_sigma: 0.015,
        }
    }
}

impl DatasetConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if `noise_sigma` is negative
    /// or not finite.
    pub fn validate(&self) -> Result<()> {
        if !self.noise_sigma.is_finite() || !(0.0..=0.5).contains(&self.noise_sigma) {
            return Err(DatasetError::InvalidConfig {
                name: "noise_sigma",
                value: self.noise_sigma.to_string(),
            });
        }
        Ok(())
    }
}

/// Standard normal sample via Box–Muller. Takes exactly
/// [`WORDS_PER_GAUSSIAN`] words from `rng`.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Raw `next_u64` words one [`gaussian`] draw consumes (one per uniform).
const WORDS_PER_GAUSSIAN: usize = 2;

/// One measured score: the model's ratio `reference / execution_time_s(m,
/// w)` (the bits of [`crate::perf_model::spec_ratio`] when `reference` is
/// [`reference_time_s`]`(w)`) under multiplicative lognormal noise drawn
/// from `rng`.
fn noisy_score(
    reference: f64,
    m: &MicroArch,
    w: &WorkloadCharacteristics,
    noise_sigma: f64,
    rng: &mut StdRng,
) -> f64 {
    reference / execution_time_s(m, w) * (noise_sigma * gaussian(rng)).exp()
}

/// Generates the complete 29 × 117 performance database.
///
/// Pipeline: build the Table 1 machine catalog (with per-instance
/// variation), evaluate the CPI-stack model for every (benchmark, machine)
/// pair, then apply multiplicative lognormal measurement noise.
/// Deterministic given `config.seed`.
///
/// # Errors
///
/// Returns [`DatasetError::InvalidConfig`] on invalid configuration.
///
/// # Example
///
/// ```
/// use datatrans_dataset::generator::{generate, DatasetConfig};
///
/// # fn main() -> Result<(), datatrans_dataset::DatasetError> {
/// let db = generate(&DatasetConfig { seed: 7, noise_sigma: 0.01 })?;
/// assert_eq!(db.n_benchmarks() * db.n_machines(), 29 * 117);
/// # Ok(())
/// # }
/// ```
pub fn generate(config: &DatasetConfig) -> Result<PerfDatabase> {
    config.validate()?;
    let benchmarks = spec_cpu2006();
    let machines = build_machines(config.seed);
    score_catalog(
        benchmarks,
        machines,
        config.seed,
        config.noise_sigma,
        Parallelism::Auto,
    )
}

/// Evaluates the CPI-stack model over `benchmarks × machines` and applies
/// multiplicative lognormal measurement noise — the shared scoring tail of
/// [`generate`] and [`generate_scaled`], one benchmark row per parallel
/// item.
///
/// The catalog draws its noise from one stream seeded by `seed`, cell
/// after cell in row-major order. A sequential pre-pass steps that stream
/// past each row's draws and keeps a copy of it at the start of every row,
/// so each row scores from its own checkpoint on any worker, and every
/// score has the bits of the one-stream sequential loop at any thread
/// count. Each row evaluates the reference machine once.
fn score_catalog(
    benchmarks: Vec<Benchmark>,
    machines: Vec<Machine>,
    seed: u64,
    noise_sigma: f64,
    parallelism: Parallelism,
) -> Result<PerfDatabase> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4_963E_E407));
    let checkpoints: Vec<StdRng> = benchmarks
        .iter()
        .map(|_| {
            let start = rng.clone();
            for _ in 0..WORDS_PER_GAUSSIAN * machines.len() {
                rng.next_u64();
            }
            start
        })
        .collect();
    let mut scores = vec![0.0; benchmarks.len() * machines.len()];
    // One slot per row; each item locks only its own, so the locks are
    // uncontended and exist to hand a worker its `&mut` row.
    let rows: Vec<Mutex<&mut [f64]>> = scores
        .chunks_mut(machines.len().max(1))
        .map(Mutex::new)
        .collect();
    parallelism.par_map_indexed(1, rows.len(), |b| {
        let w = &benchmarks[b].characteristics;
        let reference = reference_time_s(w);
        let mut rng = checkpoints[b].clone();
        let mut row = rows[b].lock().expect("private score row");
        for (score, m) in row.iter_mut().zip(&machines) {
            *score = noisy_score(reference, &m.micro, w, noise_sigma, &mut rng);
        }
    });
    drop(rows);
    PerfDatabase::new(benchmarks, machines, scores)
}

/// Configuration of the scale-test dataset generator.
///
/// Where [`DatasetConfig`] reproduces the paper's fixed 29 × 117 matrix,
/// `ScaleConfig` synthesizes catalogs orders of magnitude larger —
/// 1k–10k machines — for the sharded database's scale tests and benches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleConfig {
    /// Master seed; the whole catalog is a pure function of it.
    pub seed: u64,
    /// Multiplicative lognormal measurement-noise sigma (as in
    /// [`DatasetConfig::noise_sigma`]).
    pub noise_sigma: f64,
    /// Number of machines (columns). The 39 nickname templates are
    /// expanded round-robin, keeping each processor family's machines
    /// contiguous in column order.
    pub n_machines: usize,
    /// Number of benchmarks (rows): the 29 SPEC CPU2006 benchmarks first,
    /// then deterministic synthetics
    /// ([`crate::workload_synth::synthesize_suite`]).
    pub n_benchmarks: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            seed: 0x5CA1_AB1E,
            noise_sigma: 0.015,
            n_machines: 1000,
            n_benchmarks: 29,
        }
    }
}

impl ScaleConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if `noise_sigma` is outside
    /// `[0, 0.5]` or either dimension is zero.
    pub fn validate(&self) -> Result<()> {
        if !self.noise_sigma.is_finite() || !(0.0..=0.5).contains(&self.noise_sigma) {
            return Err(DatasetError::InvalidConfig {
                name: "noise_sigma",
                value: self.noise_sigma.to_string(),
            });
        }
        if self.n_machines == 0 {
            return Err(DatasetError::InvalidConfig {
                name: "n_machines",
                value: "0".into(),
            });
        }
        if self.n_benchmarks == 0 {
            return Err(DatasetError::InvalidConfig {
                name: "n_benchmarks",
                value: "0".into(),
            });
        }
        Ok(())
    }
}

/// Generates a scale-test performance database of
/// `n_benchmarks × n_machines`.
///
/// Same pipeline as [`generate`] — catalog, CPI-stack model, lognormal
/// noise — over the scale catalog of
/// [`build_scaled_machines`] and the extended suite of
/// [`crate::workload_synth::synthesize_suite`]. Deterministic given the
/// config; the committed golden digest in `tests/determinism.rs` pins the
/// 1k-machine catalog against generator drift.
///
/// # Errors
///
/// Returns [`DatasetError::InvalidConfig`] on invalid configuration.
///
/// # Example
///
/// ```
/// use datatrans_dataset::generator::{generate_scaled, ScaleConfig};
///
/// # fn main() -> Result<(), datatrans_dataset::DatasetError> {
/// let db = generate_scaled(&ScaleConfig { n_machines: 200, ..ScaleConfig::default() })?;
/// assert_eq!(db.n_machines(), 200);
/// assert_eq!(db.n_benchmarks(), 29);
/// # Ok(())
/// # }
/// ```
pub fn generate_scaled(config: &ScaleConfig) -> Result<PerfDatabase> {
    config.validate()?;
    let benchmarks = crate::workload_synth::synthesize_suite(config.n_benchmarks, config.seed);
    let machines = build_scaled_machines(config.seed, config.n_machines);
    score_catalog(
        benchmarks,
        machines,
        config.seed,
        config.noise_sigma,
        Parallelism::Auto,
    )
}

/// Synthesizes a streaming-ingest batch of `n_machines` scored machines
/// against an existing benchmark suite — the feed for
/// [`PerfDatabase::push_machines`] and
/// [`crate::sharded::ShardedPerfDatabase::push_machines`].
///
/// Same scoring pipeline as the generators (scale catalog templates,
/// CPI-stack model, multiplicative lognormal noise), but each entry's
/// scores come from an RNG seeded by `(seed, entry index)`, so entry `i` is
/// **independent of how the batch is split**: pushing entries one at a
/// time, in chunks, or all at once yields bitwise-identical catalogs.
///
/// # Errors
///
/// Returns [`DatasetError::Empty`] if `benchmarks` is empty, or
/// [`DatasetError::InvalidConfig`] if `noise_sigma` is outside `[0, 0.5]`.
///
/// # Example
///
/// ```
/// use datatrans_dataset::generator::{generate, synthesize_ingest, DatasetConfig};
///
/// # fn main() -> Result<(), datatrans_dataset::DatasetError> {
/// let mut db = generate(&DatasetConfig::default())?;
/// let batch = synthesize_ingest(7, db.benchmarks(), 4, 0.015)?;
/// db.push_machines(&batch)?;
/// assert_eq!(db.n_machines(), 121);
/// assert_eq!(db.catalog_version(), 1);
/// # Ok(())
/// # }
/// ```
pub fn synthesize_ingest(
    seed: u64,
    benchmarks: &[Benchmark],
    n_machines: usize,
    noise_sigma: f64,
) -> Result<Vec<MachineIngest>> {
    if !noise_sigma.is_finite() || !(0.0..=0.5).contains(&noise_sigma) {
        return Err(DatasetError::InvalidConfig {
            name: "noise_sigma",
            value: noise_sigma.to_string(),
        });
    }
    if benchmarks.is_empty() {
        return Err(DatasetError::Empty { what: "benchmarks" });
    }
    let machines = build_scaled_machines(seed ^ 0x1A6E_57ED, n_machines);
    let references: Vec<f64> = benchmarks
        .iter()
        .map(|b| reference_time_s(&b.characteristics))
        .collect();
    Ok(machines
        .into_iter()
        .enumerate()
        .map(|(i, machine)| {
            let mut rng = StdRng::seed_from_u64(
                seed.wrapping_mul(0xA24B_AED4_963E_E407)
                    .wrapping_add(i as u64),
            );
            let scores = benchmarks
                .iter()
                .zip(&references)
                .map(|(b, &reference)| {
                    noisy_score(
                        reference,
                        &machine.micro,
                        &b.characteristics,
                        noise_sigma,
                        &mut rng,
                    )
                })
                .collect();
            MachineIngest { machine, scores }
        })
        .collect())
}

/// Measurement-noise model for robustness studies.
///
/// Models run-to-run variation of a benchmark score as multiplicative
/// lognormal noise: a measurement of a clean score `s` is
/// `s * exp(sigma * N(0, 1))`. Every `(benchmark, machine)` cell owns its
/// own RNG stream derived from `(seed, benchmark, machine)` alone — like
/// [`synthesize_ingest`]'s per-entry streams, the draws are **independent
/// of how the catalog is split**: measuring a subset of machines, a single
/// cell, or the whole matrix yields bitwise-identical values for the cells
/// in common. With `sigma = 0` no RNG is consulted at all and every
/// measurement is bitwise-identical to the clean score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Master seed; every cell's measurement stream is a pure function of
    /// `(seed, benchmark, machine)`.
    pub seed: u64,
    /// Standard deviation of the multiplicative lognormal noise, in
    /// `[0, 0.5]`. SPEC run-to-run variation is on the order of 1–2%.
    pub sigma: f64,
    /// Measurements synthesized per cell (`>= 1`).
    pub repeats: usize,
}

impl NoiseConfig {
    /// The noiseless model: `sigma = 0`, one measurement per cell.
    /// Measuring with it reproduces the clean scores bit for bit.
    pub fn clean() -> Self {
        NoiseConfig {
            seed: 0,
            sigma: 0.0,
            repeats: 1,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DatasetError::InvalidConfig`] if `sigma` is outside
    /// `[0, 0.5]` or `repeats` is zero.
    pub fn validate(&self) -> Result<()> {
        if !self.sigma.is_finite() || !(0.0..=0.5).contains(&self.sigma) {
            return Err(DatasetError::InvalidConfig {
                name: "sigma",
                value: self.sigma.to_string(),
            });
        }
        if self.repeats == 0 {
            return Err(DatasetError::InvalidConfig {
                name: "repeats",
                value: "0".into(),
            });
        }
        Ok(())
    }

    /// Seed of cell `(b, m)`'s measurement stream — a pure function of
    /// `(self.seed, b, m)`, which is what makes the model split-invariant.
    fn cell_seed(&self, b: usize, m: usize) -> u64 {
        self.seed
            .wrapping_mul(0xA24B_AED4_963E_E407)
            .wrapping_add((b as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((m as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Synthesizes `repeats` measurements of cell `(b, m)` whose clean
    /// score is `clean`. With `sigma = 0` the clean score is repeated
    /// bitwise, with no RNG draws.
    pub fn measure(&self, clean: f64, b: usize, m: usize) -> Vec<f64> {
        if self.sigma == 0.0 {
            return vec![clean; self.repeats];
        }
        let mut rng = StdRng::seed_from_u64(self.cell_seed(b, m));
        (0..self.repeats)
            .map(|_| clean * (self.sigma * gaussian(&mut rng)).exp())
            .collect()
    }

    /// A single perturbed measurement of cell `(b, m)`: the first draw of
    /// the cell's stream, or `clean` itself bitwise when `sigma = 0`.
    pub fn perturb(&self, clean: f64, b: usize, m: usize) -> f64 {
        if self.sigma == 0.0 {
            return clean;
        }
        let mut rng = StdRng::seed_from_u64(self.cell_seed(b, m));
        clean * (self.sigma * gaussian(&mut rng)).exp()
    }
}

/// Synthesizes repeated measurements of benchmark row `app` on each of
/// `machines`, one `Vec` of [`NoiseConfig::repeats`] measurements per
/// machine in input order.
///
/// Split-invariant: the measurements of a machine depend only on
/// `(noise.seed, app, machine)`, never on which other machines are in the
/// slice.
///
/// # Errors
///
/// Returns [`DatasetError::InvalidConfig`] on an invalid noise model, or
/// [`DatasetError::IndexOutOfBounds`] if `app` or any machine index is out
/// of range.
pub fn synthesize_measurements<D: DatabaseView + ?Sized>(
    db: &D,
    app: usize,
    machines: &[usize],
    noise: &NoiseConfig,
) -> Result<Vec<Vec<f64>>> {
    noise.validate()?;
    if app >= db.n_benchmarks() {
        return Err(DatasetError::IndexOutOfBounds {
            what: "benchmark",
            index: app,
            bound: db.n_benchmarks(),
        });
    }
    let bound = db.n_machines();
    machines
        .iter()
        .map(|&m| {
            if m >= bound {
                return Err(DatasetError::IndexOutOfBounds {
                    what: "machine",
                    index: m,
                    bound,
                });
            }
            Ok(noise.measure(db.score(app, m), app, m))
        })
        .collect()
}

/// Applies one perturbed measurement per cell to a whole catalog,
/// returning a new database over the same benchmarks and machines.
///
/// With `noise.sigma = 0` the perturbed catalog is bitwise-identical to
/// the input (the robustness baseline); otherwise cell `(b, m)` is
/// replaced by the first draw of its measurement stream.
///
/// # Errors
///
/// Returns [`DatasetError::InvalidConfig`] on an invalid noise model.
pub fn perturb_database(db: &PerfDatabase, noise: &NoiseConfig) -> Result<PerfDatabase> {
    noise.validate()?;
    let mut scores = Vec::with_capacity(db.n_benchmarks() * db.n_machines());
    for b in 0..db.n_benchmarks() {
        for m in 0..db.n_machines() {
            scores.push(noise.perturb(db.score(b, m), b, m));
        }
    }
    PerfDatabase::new(db.benchmarks().to_vec(), db.machines().to_vec(), scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf_model::spec_ratio;
    use crate::workload_synth::synthesize_suite;

    /// The per-cell loop the row scorer replaced: one noise stream stepped
    /// cell after cell on one thread, the reference machine evaluated for
    /// every cell.
    fn score_cells_reference(
        benchmarks: &[Benchmark],
        machines: &[Machine],
        seed: u64,
        noise_sigma: f64,
    ) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4_963E_E407));
        let mut scores = Vec::with_capacity(benchmarks.len() * machines.len());
        for b in benchmarks {
            for m in machines {
                let clean = spec_ratio(&m.micro, &b.characteristics);
                scores.push(clean * (noise_sigma * gaussian(&mut rng)).exp());
            }
        }
        scores
    }

    /// The per-entry loop `synthesize_ingest` ran before its reference
    /// times were hoisted out of it.
    fn ingest_reference(
        seed: u64,
        benchmarks: &[Benchmark],
        n_machines: usize,
        noise_sigma: f64,
    ) -> Vec<MachineIngest> {
        build_scaled_machines(seed ^ 0x1A6E_57ED, n_machines)
            .into_iter()
            .enumerate()
            .map(|(i, machine)| {
                let mut rng = StdRng::seed_from_u64(
                    seed.wrapping_mul(0xA24B_AED4_963E_E407)
                        .wrapping_add(i as u64),
                );
                let scores = benchmarks
                    .iter()
                    .map(|b| {
                        spec_ratio(&machine.micro, &b.characteristics)
                            * (noise_sigma * gaussian(&mut rng)).exp()
                    })
                    .collect();
                MachineIngest { machine, scores }
            })
            .collect()
    }

    fn all_scores(db: &PerfDatabase) -> Vec<f64> {
        (0..db.n_benchmarks())
            .flat_map(|b| db.benchmark_row(b).to_vec())
            .collect()
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: score count");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: cell {i}: {g} vs {w}");
        }
    }

    #[test]
    fn a_gaussian_draw_takes_its_declared_words() {
        let mut drawn = StdRng::seed_from_u64(3);
        let mut stepped = drawn.clone();
        for _ in 0..100 {
            gaussian(&mut drawn);
            for _ in 0..WORDS_PER_GAUSSIAN {
                stepped.next_u64();
            }
            assert_eq!(drawn, stepped);
        }
    }

    #[test]
    fn paper_catalog_scores_match_the_per_cell_loop_bitwise() {
        let config = DatasetConfig::default();
        let db = generate(&config).unwrap();
        let want = score_cells_reference(
            &spec_cpu2006(),
            &build_machines(config.seed),
            config.seed,
            config.noise_sigma,
        );
        assert_same_bits(&all_scores(&db), &want, "generate");
    }

    #[test]
    fn scaled_catalog_scores_match_the_per_cell_loop_at_any_thread_count() {
        // The shipped 1k-machine catalog, and a small one whose 31 rows
        // are a multiple of neither 2 nor 4 workers.
        let small = ScaleConfig {
            seed: 0xB17_F0B,
            noise_sigma: 0.02,
            n_machines: 45,
            n_benchmarks: 31,
        };
        for config in [ScaleConfig::default(), small] {
            let benchmarks = synthesize_suite(config.n_benchmarks, config.seed);
            let machines = build_scaled_machines(config.seed, config.n_machines);
            let want =
                score_cells_reference(&benchmarks, &machines, config.seed, config.noise_sigma);
            let what = format!("{} x {}", config.n_benchmarks, config.n_machines);
            let db = generate_scaled(&config).unwrap();
            assert_same_bits(&all_scores(&db), &want, &format!("generate_scaled {what}"));
            for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
                let db = score_catalog(
                    benchmarks.clone(),
                    machines.clone(),
                    config.seed,
                    config.noise_sigma,
                    parallelism,
                )
                .unwrap();
                assert_same_bits(
                    &all_scores(&db),
                    &want,
                    &format!("{what} at {parallelism:?}"),
                );
            }
        }
    }

    #[test]
    fn ingest_scores_match_the_per_entry_loop_bitwise() {
        let db = generate(&DatasetConfig::default()).unwrap();
        for (seed, n) in [(9, 6), (0xFEED, 17)] {
            let got = synthesize_ingest(seed, db.benchmarks(), n, 0.015).unwrap();
            let want = ingest_reference(seed, db.benchmarks(), n, 0.015);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.machine, w.machine);
                assert_same_bits(&g.scores, &w.scores, &format!("ingest seed {seed}"));
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&DatasetConfig::default()).unwrap();
        let b = generate(&DatasetConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&DatasetConfig {
            seed: 1,
            noise_sigma: 0.015,
        })
        .unwrap();
        let b = generate(&DatasetConfig {
            seed: 2,
            noise_sigma: 0.015,
        })
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_noise_matches_model_exactly() {
        let db = generate(&DatasetConfig {
            seed: 5,
            noise_sigma: 0.0,
        })
        .unwrap();
        let b = &db.benchmarks()[0];
        let m = &db.machines()[0];
        let expected = spec_ratio(&m.micro, &b.characteristics);
        assert!((db.score(0, 0) - expected).abs() < 1e-12);
    }

    #[test]
    fn noise_is_small_relative_perturbation() {
        let clean = generate(&DatasetConfig {
            seed: 5,
            noise_sigma: 0.0,
        })
        .unwrap();
        let noisy = generate(&DatasetConfig {
            seed: 5,
            noise_sigma: 0.015,
        })
        .unwrap();
        for b in 0..clean.n_benchmarks() {
            for m in 0..clean.n_machines() {
                let rel = (noisy.score(b, m) / clean.score(b, m)).ln().abs();
                assert!(rel < 0.1, "noise too large: {rel}");
            }
        }
    }

    #[test]
    fn validates_config() {
        assert!(generate(&DatasetConfig {
            seed: 1,
            noise_sigma: -0.1
        })
        .is_err());
        assert!(generate(&DatasetConfig {
            seed: 1,
            noise_sigma: 0.9
        })
        .is_err());
        assert!(generate(&DatasetConfig {
            seed: 1,
            noise_sigma: f64::NAN
        })
        .is_err());
    }

    #[test]
    fn scaled_generation_is_deterministic_and_valid() {
        let config = ScaleConfig {
            n_machines: 150,
            n_benchmarks: 33,
            ..ScaleConfig::default()
        };
        let a = generate_scaled(&config).unwrap();
        let b = generate_scaled(&config).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.n_machines(), 150);
        assert_eq!(a.n_benchmarks(), 33);
        for bench in 0..a.n_benchmarks() {
            for m in 0..a.n_machines() {
                let s = a.score(bench, m);
                assert!(s.is_finite() && s > 0.0);
            }
        }
    }

    #[test]
    fn scaled_generation_validates_config() {
        assert!(generate_scaled(&ScaleConfig {
            n_machines: 0,
            ..ScaleConfig::default()
        })
        .is_err());
        assert!(generate_scaled(&ScaleConfig {
            n_benchmarks: 0,
            ..ScaleConfig::default()
        })
        .is_err());
        assert!(generate_scaled(&ScaleConfig {
            noise_sigma: -1.0,
            ..ScaleConfig::default()
        })
        .is_err());
    }

    #[test]
    fn ingest_entries_are_independent_of_batch_splits() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let whole = synthesize_ingest(9, db.benchmarks(), 6, 0.015).unwrap();
        // Same seed, shorter batch: a prefix must be bitwise-identical.
        let prefix = synthesize_ingest(9, db.benchmarks(), 3, 0.015).unwrap();
        assert_eq!(&whole[..3], &prefix[..]);
        for entry in &whole {
            assert_eq!(entry.scores.len(), 29);
            assert!(entry.scores.iter().all(|s| s.is_finite() && *s > 0.0));
        }
    }

    #[test]
    fn ingest_validates_inputs() {
        let db = generate(&DatasetConfig::default()).unwrap();
        assert!(matches!(
            synthesize_ingest(1, db.benchmarks(), 2, 0.9),
            Err(DatasetError::InvalidConfig {
                name: "noise_sigma",
                ..
            })
        ));
        assert!(matches!(
            synthesize_ingest(1, &[], 2, 0.015),
            Err(DatasetError::Empty { what: "benchmarks" })
        ));
    }

    #[test]
    fn scores_positive_and_finite() {
        let db = generate(&DatasetConfig::default()).unwrap();
        for b in 0..db.n_benchmarks() {
            for m in 0..db.n_machines() {
                let s = db.score(b, m);
                assert!(s.is_finite() && s > 0.0);
            }
        }
    }

    #[test]
    fn zero_sigma_perturbation_is_bitwise_identity() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let noise = NoiseConfig {
            seed: 99,
            sigma: 0.0,
            repeats: 3,
        };
        let perturbed = perturb_database(&db, &noise).unwrap();
        for b in 0..db.n_benchmarks() {
            for m in 0..db.n_machines() {
                assert_eq!(db.score(b, m).to_bits(), perturbed.score(b, m).to_bits());
            }
        }
        // Repeated measurements of a cell are the clean score, bitwise.
        let reps = noise.measure(db.score(3, 7), 3, 7);
        assert_eq!(reps.len(), 3);
        assert!(reps.iter().all(|r| r.to_bits() == db.score(3, 7).to_bits()));
    }

    #[test]
    fn noise_streams_are_split_invariant() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let noise = NoiseConfig {
            seed: 7,
            sigma: 0.05,
            repeats: 4,
        };
        let all: Vec<usize> = (0..db.n_machines()).collect();
        let whole = synthesize_measurements(&db, 2, &all, &noise).unwrap();
        // A subset, in a different order, reproduces the same cells bitwise.
        let subset = [40usize, 3, 99];
        let partial = synthesize_measurements(&db, 2, &subset, &noise).unwrap();
        for (slot, &m) in subset.iter().enumerate() {
            let a: Vec<u64> = whole[m].iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = partial[slot].iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "machine {m} diverged between splits");
        }
        // The perturbed catalog's cell equals the first measurement.
        let perturbed = perturb_database(&db, &noise).unwrap();
        assert_eq!(
            perturbed.score(2, 40).to_bits(),
            whole[40][0].to_bits(),
            "perturbation is not the first draw of the cell stream"
        );
    }

    #[test]
    fn noise_perturbation_is_small_and_cellwise() {
        let db = generate(&DatasetConfig::default()).unwrap();
        let noise = NoiseConfig {
            seed: 11,
            sigma: 0.02,
            repeats: 1,
        };
        let perturbed = perturb_database(&db, &noise).unwrap();
        let mut changed = 0;
        for b in 0..db.n_benchmarks() {
            for m in 0..db.n_machines() {
                let rel = (perturbed.score(b, m) / db.score(b, m)).ln().abs();
                assert!(rel < 0.2, "noise too large: {rel}");
                if perturbed.score(b, m) != db.score(b, m) {
                    changed += 1;
                }
            }
        }
        // Essentially every cell moves (a gaussian draw of exactly 0.0 is
        // vanishingly unlikely).
        assert!(changed > db.n_benchmarks() * db.n_machines() / 2);
    }

    #[test]
    fn noise_config_validates() {
        assert!(NoiseConfig::clean().validate().is_ok());
        assert!(NoiseConfig {
            seed: 1,
            sigma: 0.9,
            repeats: 1
        }
        .validate()
        .is_err());
        assert!(NoiseConfig {
            seed: 1,
            sigma: f64::NAN,
            repeats: 1
        }
        .validate()
        .is_err());
        assert!(NoiseConfig {
            seed: 1,
            sigma: 0.01,
            repeats: 0
        }
        .validate()
        .is_err());
        let db = generate(&DatasetConfig::default()).unwrap();
        // Out-of-range rows and machines are typed errors, not panics.
        assert!(matches!(
            synthesize_measurements(&db, 999, &[0], &NoiseConfig::clean()),
            Err(DatasetError::IndexOutOfBounds {
                what: "benchmark",
                ..
            })
        ));
        assert!(matches!(
            synthesize_measurements(&db, 0, &[db.n_machines()], &NoiseConfig::clean()),
            Err(DatasetError::IndexOutOfBounds {
                what: "machine",
                ..
            })
        ));
    }
}
