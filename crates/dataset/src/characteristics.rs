//! Microarchitecture-independent workload characteristics.
//!
//! These play the role of the MICA-style characteristics of Hoste et al.:
//! properties of a program that do not depend on the machine it runs on.
//! In this synthetic substrate the same vector *drives* the performance
//! model, so the causal link GA-kNN must learn (characteristics →
//! performance) is preserved by construction.

/// The latent demand vector of one workload.
///
/// All fractions are in `[0, 1]`; working sets are in MiB; the dynamic
/// instruction count is in units of 10⁹ instructions.
/// [`WorkloadCharacteristics::out_of_domain`] checks every field against
/// its domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadCharacteristics {
    /// Dynamic instruction count, ×10⁹.
    pub instr_e9: f64,
    /// Inherent instruction-level parallelism (attainable IPC ceiling).
    pub ilp: f64,
    /// Fraction of floating-point instructions.
    pub fp_fraction: f64,
    /// Fraction of memory (load/store) instructions.
    pub mem_fraction: f64,
    /// Fraction of branch instructions.
    pub branch_fraction: f64,
    /// Mispredictions per branch on a baseline predictor.
    pub mispredict_rate: f64,
    /// Data working-set size in MiB.
    pub working_set_mib: f64,
    /// Fraction of accesses that stream (never become cache-resident).
    pub stream_fraction: f64,
    /// Power-law locality exponent: higher = sharper cache cliff.
    pub locality_alpha: f64,
    /// Sustained memory-bandwidth demand at full speed, GB/s.
    pub bandwidth_demand: f64,
    /// Memory-level parallelism: overlapping outstanding misses (≥ 1).
    pub mlp: f64,
    /// Code regularity in `[0, 1]`: how well static/EPIC machines can
    /// schedule it (software pipelining, predication).
    pub regularity: f64,
}

impl WorkloadCharacteristics {
    /// Number of dimensions in the characteristic vector.
    pub const DIMS: usize = 12;

    /// Human-readable names of the vector dimensions (for reports).
    pub const DIM_NAMES: [&'static str; Self::DIMS] = [
        "log-instruction-count",
        "ilp",
        "fp-fraction",
        "mem-fraction",
        "branch-fraction",
        "mispredict-rate",
        "log-working-set",
        "stream-fraction",
        "locality-alpha",
        "bandwidth-demand",
        "mlp",
        "regularity",
    ];

    /// Number of dimensions in the *observable* (MICA-style) vector.
    pub const MICA_DIMS: usize = 8;

    /// Flattens into the full latent vector. Count-like dimensions are
    /// log-scaled.
    pub fn to_vector(&self) -> Vec<f64> {
        vec![
            self.instr_e9.max(1e-9).ln(),
            self.ilp,
            self.fp_fraction,
            self.mem_fraction,
            self.branch_fraction,
            self.mispredict_rate,
            self.working_set_mib.max(1e-9).ln(),
            self.stream_fraction,
            self.locality_alpha,
            self.bandwidth_demand,
            self.mlp,
            self.regularity,
        ]
    }

    /// The microarchitecture-independent characteristics an actual MICA
    /// profiling run can observe — what GA-kNN consumes.
    ///
    /// Instruction mix, ILP, branch predictability, working-set size and
    /// code regularity are all measurable from an instrumented run. The
    /// remaining latent dimensions are not:
    ///
    /// * **bandwidth demand** and **memory-level parallelism** are
    ///   machine-interaction quantities;
    /// * the **reuse-distance shape** (`stream_fraction`,
    ///   `locality_alpha`) is only weakly reflected in MICA's working-set
    ///   counts and local stride histograms.
    ///
    /// This observation gap is precisely why workload-similarity methods
    /// mispredict outlier workloads — the paper's motivation.
    pub fn to_mica_vector(&self) -> Vec<f64> {
        vec![
            self.instr_e9.max(1e-9).ln(),
            self.ilp,
            self.fp_fraction,
            self.mem_fraction,
            self.branch_fraction,
            self.mispredict_rate,
            self.working_set_mib.max(1e-9).ln(),
            self.regularity,
        ]
    }

    /// The first field (in declaration order) outside its domain, with its
    /// value, or `None` when every field is in its domain.
    ///
    /// The domains: the instruction count, ILP, working set and locality
    /// exponent are positive; the four fractions, the mispredict rate and
    /// regularity lie in `[0, 1]`; the bandwidth demand is at least 0 and
    /// the MLP at least 1. Every field must be finite, so a NaN or an
    /// infinity is outside every domain. The performance model is defined
    /// on these domains only, which is why serving refuses an external app
    /// outside them.
    pub fn out_of_domain(&self) -> Option<(&'static str, f64)> {
        let positive = |v: f64| v.is_finite() && v > 0.0;
        let unit = |v: f64| (0.0..=1.0).contains(&v);
        [
            ("instr_e9", self.instr_e9, positive(self.instr_e9)),
            ("ilp", self.ilp, positive(self.ilp)),
            ("fp_fraction", self.fp_fraction, unit(self.fp_fraction)),
            ("mem_fraction", self.mem_fraction, unit(self.mem_fraction)),
            (
                "branch_fraction",
                self.branch_fraction,
                unit(self.branch_fraction),
            ),
            (
                "mispredict_rate",
                self.mispredict_rate,
                unit(self.mispredict_rate),
            ),
            (
                "working_set_mib",
                self.working_set_mib,
                positive(self.working_set_mib),
            ),
            (
                "stream_fraction",
                self.stream_fraction,
                unit(self.stream_fraction),
            ),
            (
                "locality_alpha",
                self.locality_alpha,
                positive(self.locality_alpha),
            ),
            (
                "bandwidth_demand",
                self.bandwidth_demand,
                self.bandwidth_demand.is_finite() && self.bandwidth_demand >= 0.0,
            ),
            ("mlp", self.mlp, self.mlp.is_finite() && self.mlp >= 1.0),
            ("regularity", self.regularity, unit(self.regularity)),
        ]
        .into_iter()
        .find(|&(_, _, in_domain)| !in_domain)
        .map(|(field, value, _)| (field, value))
    }

    /// Validates ranges; used by the workload synthesizer and tests. The
    /// synthesizer's ranges are narrower than [`Self::out_of_domain`]'s:
    /// ILP at least 0.5 and at most 0.5 mispredictions per branch.
    pub fn is_plausible(&self) -> bool {
        self.out_of_domain().is_none() && self.ilp >= 0.5 && self.mispredict_rate <= 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadCharacteristics {
        WorkloadCharacteristics {
            instr_e9: 2000.0,
            ilp: 2.5,
            fp_fraction: 0.1,
            mem_fraction: 0.3,
            branch_fraction: 0.15,
            mispredict_rate: 0.05,
            working_set_mib: 8.0,
            stream_fraction: 0.1,
            locality_alpha: 0.5,
            bandwidth_demand: 2.0,
            mlp: 1.5,
            regularity: 0.4,
        }
    }

    #[test]
    fn vector_has_declared_dims() {
        let v = sample().to_vector();
        assert_eq!(v.len(), WorkloadCharacteristics::DIMS);
        assert_eq!(
            WorkloadCharacteristics::DIM_NAMES.len(),
            WorkloadCharacteristics::DIMS
        );
    }

    #[test]
    fn vector_log_scales_counts() {
        let v = sample().to_vector();
        assert!((v[0] - 2000.0f64.ln()).abs() < 1e-12);
        assert!((v[6] - 8.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn plausibility_checks() {
        assert!(sample().is_plausible());
        let mut bad = sample();
        bad.fp_fraction = 1.5;
        assert!(!bad.is_plausible());
        let mut bad = sample();
        bad.mlp = 0.5;
        assert!(!bad.is_plausible());
        let mut bad = sample();
        bad.working_set_mib = 0.0;
        assert!(!bad.is_plausible());
        let mut bad = sample();
        bad.ilp = 0.4;
        assert!(bad.out_of_domain().is_none() && !bad.is_plausible());
    }

    #[test]
    fn out_of_domain_names_the_first_offending_field() {
        assert_eq!(sample().out_of_domain(), None);
        type Edit = fn(&mut WorkloadCharacteristics);
        let cases: [(Edit, &str, f64); 13] = [
            (|w| w.instr_e9 = 0.0, "instr_e9", 0.0),
            (|w| w.ilp = -1.0, "ilp", -1.0),
            (|w| w.fp_fraction = 1.5, "fp_fraction", 1.5),
            (|w| w.mem_fraction = -0.1, "mem_fraction", -0.1),
            (|w| w.branch_fraction = 2.0, "branch_fraction", 2.0),
            (|w| w.mispredict_rate = 1.01, "mispredict_rate", 1.01),
            (|w| w.working_set_mib = -3.0, "working_set_mib", -3.0),
            (|w| w.stream_fraction = -5.0, "stream_fraction", -5.0),
            (|w| w.locality_alpha = 0.0, "locality_alpha", 0.0),
            (|w| w.bandwidth_demand = -0.5, "bandwidth_demand", -0.5),
            (|w| w.mlp = 0.99, "mlp", 0.99),
            (|w| w.regularity = 1e300, "regularity", 1e300),
            (|w| w.instr_e9 = f64::INFINITY, "instr_e9", f64::INFINITY),
        ];
        for (edit, field, value) in cases {
            let mut w = sample();
            edit(&mut w);
            assert_eq!(w.out_of_domain(), Some((field, value)));
        }
        let mut nan = sample();
        nan.mlp = f64::NAN;
        assert_eq!(nan.out_of_domain().map(|(field, _)| field), Some("mlp"));
        // The edges of each domain are inside it.
        let edges = WorkloadCharacteristics {
            fp_fraction: 0.0,
            mem_fraction: 1.0,
            mispredict_rate: 1.0,
            stream_fraction: 0.0,
            bandwidth_demand: 0.0,
            mlp: 1.0,
            regularity: 1.0,
            ..sample()
        };
        assert_eq!(edges.out_of_domain(), None);
        // Several bad fields: the first in declaration order is named.
        let zeros = WorkloadCharacteristics {
            instr_e9: 0.0,
            ilp: 0.0,
            working_set_mib: 0.0,
            ..sample()
        };
        assert_eq!(zeros.out_of_domain(), Some(("instr_e9", 0.0)));
    }
}
