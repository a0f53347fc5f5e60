//! Ablation study over the design choices DESIGN.md calls out.
//!
//! Not part of the paper's evaluation; this quantifies how sensitive each
//! method is to its own hyper-parameters on one representative fold
//! (targets = Intel Xeon family, leave-one-out over a benchmark sample):
//!
//! * MLPᵀ hidden-layer width and epoch budget,
//! * MLPᵀ log-domain versus linear-domain scores,
//! * NNᵀ model-selection criterion (R² vs residual std) and domain,
//! * GA-kNN neighbour count `k`,
//! * measurement-noise sensitivity of all three methods.

use std::fmt;

use datatrans_core::eval::family_cv::{family_cross_validation, FamilyCvConfig};
use datatrans_core::model::{FitCriterion, GaKnn, GaKnnConfig, MlpT, NnT, Predictor};
use datatrans_core::ranking::MetricAggregate;
use datatrans_dataset::machine::ProcessorFamily;
use datatrans_ml::ga::GaConfig;
use datatrans_ml::mlp::MlpConfig;
use datatrans_parallel::Parallelism;

use crate::{ExperimentConfig, Result};

/// One ablation row: a named method variant and its aggregate accuracy.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label, e.g. `"MLP^T hidden=4"`.
    pub variant: String,
    /// Aggregate over the evaluation cells.
    pub aggregate: MetricAggregate,
}

/// Ablation output.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// All variant rows, grouped by method.
    pub rows: Vec<AblationRow>,
}

struct Variant {
    label: String,
    method: Box<dyn Predictor + Send + Sync>,
}

fn variants(config: &ExperimentConfig) -> Vec<Variant> {
    let mut out: Vec<Variant> = Vec::new();
    // --- MLP^T hidden width ---
    for hidden in [vec![], vec![4], vec![8], vec![32]] {
        let label = if hidden.is_empty() {
            "MLP^T hidden=auto".to_owned()
        } else {
            format!("MLP^T hidden={}", hidden[0])
        };
        out.push(Variant {
            label,
            method: Box::new(MlpT {
                config: MlpConfig {
                    hidden_layers: hidden,
                    epochs: config.mlp_epochs,
                    ..MlpConfig::weka_default(0)
                },
                log_domain: true,
            }),
        });
    }
    // --- MLP^T epochs ---
    for epochs in [100, 500, 2000] {
        out.push(Variant {
            label: format!("MLP^T epochs={epochs}"),
            method: Box::new(MlpT {
                config: MlpConfig {
                    epochs,
                    ..MlpConfig::weka_default(0)
                },
                log_domain: true,
            }),
        });
    }
    // --- MLP^T domain ---
    out.push(Variant {
        label: "MLP^T linear-domain".to_owned(),
        method: Box::new(MlpT {
            config: MlpConfig {
                epochs: config.mlp_epochs,
                ..MlpConfig::weka_default(0)
            },
            log_domain: false,
        }),
    });
    // --- NN^T criterion and domain ---
    out.push(Variant {
        label: "NN^T r2 linear".to_owned(),
        method: Box::new(NnT::default()),
    });
    out.push(Variant {
        label: "NN^T residual-std".to_owned(),
        method: Box::new(NnT {
            criterion: FitCriterion::ResidualStd,
            log_domain: false,
        }),
    });
    out.push(Variant {
        label: "NN^T r2 log".to_owned(),
        method: Box::new(NnT {
            criterion: FitCriterion::RSquared,
            log_domain: true,
        }),
    });
    // --- GA-kNN neighbour count ---
    for k in [1, 5, 10, 20] {
        out.push(Variant {
            label: format!("GA-kNN k={k}"),
            method: Box::new(GaKnn {
                config: GaKnnConfig {
                    k,
                    ga: GaConfig {
                        population: config.ga_population,
                        generations: config.ga_generations,
                        // The variant grid owns the cores (see run()).
                        parallelism: Parallelism::Sequential,
                        ..GaConfig::default_seeded(0)
                    },
                    ..GaKnnConfig::default()
                },
            }),
        });
    }
    out
}

/// Runs the ablation on the Xeon fold.
///
/// # Errors
///
/// Propagates harness and model failures.
pub fn run(config: &ExperimentConfig) -> Result<AblationResult> {
    let backing = config.build_backing()?;
    let db = backing.view();
    let apps = config
        .app_indices(db)
        .unwrap_or_else(|| (0..db.n_benchmarks()).collect());
    // Fan out over the variants; the inner two-fold CV stays sequential so
    // the variant grid owns the cores.
    let results: Vec<Result<AblationRow>> =
        config.parallelism.par_map(2, &variants(config), |variant| {
            let report = family_cross_validation(
                db,
                std::slice::from_ref(&variant.method),
                &FamilyCvConfig {
                    seed: config.seed,
                    families: Some(vec![ProcessorFamily::Xeon, ProcessorFamily::Core2]),
                    apps: Some(apps.clone()),
                    parallelism: Parallelism::Sequential,
                },
            )?;
            let method_name = report.methods()[0].clone();
            let aggregate = report.aggregate_method(&method_name)?;
            Ok(AblationRow {
                variant: variant.label.clone(),
                aggregate,
            })
        });
    let rows = results.into_iter().collect::<Result<Vec<_>>>()?;
    Ok(AblationResult { rows })
}

impl fmt::Display for AblationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation (Xeon + Core 2 folds): rank correlation / top-1 / mean error"
        )?;
        writeln!(
            f,
            "{:<24} {:>10} {:>10} {:>10}",
            "variant", "rank", "top1%", "mean%"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<24} {:>10.3} {:>10.2} {:>10.2}",
                row.variant,
                row.aggregate.mean_rank_correlation,
                row.aggregate.mean_top1_error_pct,
                row.aggregate.mean_error_pct
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_ablation_runs() {
        let mut config = ExperimentConfig::quick();
        config.max_apps = Some(2);
        let result = run(&config).unwrap();
        // 4 hidden + 3 epochs + 1 domain + 3 NN^T + 4 GA-kNN variants.
        assert_eq!(result.rows.len(), 15);
        assert!(result.to_string().contains("variant"));
    }
}
