//! The 29 SPEC CPU2006 benchmarks and their latent workload profiles.
//!
//! Names and suite membership match SPEC CPU2006. The latent demand vectors
//! are synthetic but shaped to reproduce the behavioural structure the paper
//! relies on:
//!
//! * `libquantum`, `lbm`, `cactusADM`, `leslie3d` — streaming,
//!   bandwidth-hungry outliers (the paper's "higher-than-average SPEC
//!   scores", best on Intel Xeon Gainestown-class machines);
//! * `namd`, `hmmer` — highly regular compute-bound outliers
//!   ("lower-than-average SPEC scores", best on Intel Montecito-class
//!   machines);
//! * `mcf`, `omnetpp`, `xalancbmk` — pointer-chasing, latency-bound;
//! * the remainder fills the ordinary int/fp spectrum.

use crate::characteristics::WorkloadCharacteristics;

/// SPEC CPU2006 sub-suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// CINT2006 — integer benchmarks.
    Int,
    /// CFP2006 — floating-point benchmarks.
    Fp,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::Int => write!(f, "CINT2006"),
            Suite::Fp => write!(f, "CFP2006"),
        }
    }
}

/// One benchmark: identity plus its latent workload profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    /// SPEC benchmark name, e.g. `"libquantum"`.
    pub name: String,
    /// Sub-suite membership.
    pub suite: Suite,
    /// Application domain, e.g. `"quantum computing simulation"`.
    pub domain: String,
    /// Latent demand vector that drives the performance model.
    pub characteristics: WorkloadCharacteristics,
}

/// Shorthand for defining the catalog concisely.
#[allow(clippy::too_many_arguments)]
fn bench(
    name: &str,
    suite: Suite,
    domain: &str,
    instr_e9: f64,
    ilp: f64,
    fp: f64,
    mem: f64,
    branch: f64,
    mispredict: f64,
    ws_mib: f64,
    stream: f64,
    alpha: f64,
    bw: f64,
    mlp: f64,
    regularity: f64,
) -> Benchmark {
    Benchmark {
        name: name.to_owned(),
        suite,
        domain: domain.to_owned(),
        characteristics: WorkloadCharacteristics {
            instr_e9,
            ilp,
            fp_fraction: fp,
            mem_fraction: mem,
            branch_fraction: branch,
            mispredict_rate: mispredict,
            working_set_mib: ws_mib,
            stream_fraction: stream,
            locality_alpha: alpha,
            bandwidth_demand: bw,
            mlp,
            regularity,
        },
    }
}

/// Builds the full 29-benchmark SPEC CPU2006 catalog.
///
/// The ordering is the paper's Figure 6/7 ordering (alphabetical, int and fp
/// interleaved).
#[rustfmt::skip] // keep the one-row-per-entry data table aligned
pub fn spec_cpu2006() -> Vec<Benchmark> {
    use Suite::{Fp, Int};
    vec![
        //     name          suite  domain                         instr  ilp  fp    mem   br    mis    ws      strm  alpha bw    mlp  reg
        bench("astar",       Int, "path-finding AI",               1200.0, 1.6, 0.00, 0.32, 0.16, 0.070, 18.0,  0.03, 0.45, 1.2,  1.3, 0.25),
        bench("bwaves",      Fp,  "fluid dynamics",                2600.0, 3.2, 0.42, 0.34, 0.05, 0.010, 180.0, 0.45, 0.60, 6.5,  2.6, 0.80),
        bench("bzip2",       Int, "compression",                   1800.0, 2.0, 0.00, 0.30, 0.15, 0.055, 8.5,   0.02, 0.50, 1.0,  1.4, 0.35),
        bench("cactusADM",   Fp,  "general relativity",            2200.0, 2.4, 0.46, 0.38, 0.03, 0.008, 210.0, 0.55, 0.65, 8.0,  2.2, 0.70),
        bench("calculix",    Fp,  "structural mechanics",          3200.0, 3.0, 0.38, 0.30, 0.06, 0.015, 2.5,   0.03, 0.55, 2.0,  1.8, 0.65),
        bench("dealII",      Fp,  "finite element analysis",       2000.0, 2.6, 0.34, 0.34, 0.08, 0.020, 12.0,  0.05, 0.50, 2.2,  1.7, 0.55),
        bench("gamess",      Fp,  "quantum chemistry",             3000.0, 3.4, 0.40, 0.26, 0.07, 0.012, 1.2,   0.005, 0.55, 0.8,  1.5, 0.70),
        bench("gcc",         Int, "C compiler",                    1100.0, 1.8, 0.00, 0.34, 0.20, 0.085, 25.0,  0.08, 0.40, 1.8,  1.4, 0.15),
        bench("GemsFDTD",    Fp,  "electromagnetics",              2400.0, 2.8, 0.44, 0.36, 0.04, 0.010, 250.0, 0.50, 0.60, 7.0,  2.4, 0.75),
        bench("gobmk",       Int, "game AI (Go)",                  1600.0, 1.7, 0.00, 0.28, 0.21, 0.095, 3.0,   0.01, 0.50, 0.6,  1.2, 0.20),
        bench("gromacs",     Fp,  "molecular dynamics",            2800.0, 3.6, 0.44, 0.26, 0.05, 0.010, 1.0,   0.005, 0.60, 0.9,  1.6, 0.80),
        bench("h264ref",     Int, "video encoding",                2900.0, 2.4, 0.02, 0.32, 0.12, 0.040, 1.5,   0.02, 0.55, 1.5,  1.5, 0.50),
        bench("hmmer",       Int, "gene sequence search",          2500.0, 6.2, 0.02, 0.26, 0.08, 0.012, 0.6,   0.003, 0.70, 0.4,  1.3, 0.97),
        bench("lbm",         Fp,  "lattice Boltzmann fluids",      1500.0, 2.6, 0.40, 0.40, 0.02, 0.005, 420.0, 0.75, 0.70, 11.0, 3.2, 0.85),
        bench("leslie3d",    Fp,  "combustion simulation",         2100.0, 2.9, 0.43, 0.37, 0.04, 0.009, 130.0, 0.58, 0.62, 8.5,  2.7, 0.78),
        bench("libquantum",  Int, "quantum computing simulation",  1900.0, 2.8, 0.00, 0.34, 0.14, 0.010, 64.0,  0.85, 0.75, 12.5, 3.6, 0.90),
        bench("mcf",         Int, "combinatorial optimization",    500.0,  1.2, 0.00, 0.40, 0.19, 0.080, 340.0, 0.20, 0.35, 3.0,  1.8, 0.10),
        bench("milc",        Fp,  "lattice QCD",                   1700.0, 2.7, 0.41, 0.38, 0.03, 0.008, 170.0, 0.48, 0.58, 6.0,  2.3, 0.72),
        bench("namd",        Fp,  "biomolecular simulation",       3100.0, 6.0, 0.46, 0.24, 0.05, 0.008, 1.8,   0.005, 0.65, 0.5,  1.4, 0.95),
        bench("omnetpp",     Int, "discrete event simulation",     800.0,  1.4, 0.00, 0.36, 0.18, 0.075, 60.0,  0.10, 0.38, 2.0,  1.4, 0.12),
        bench("perlbench",   Int, "Perl interpreter",              1300.0, 1.9, 0.00, 0.33, 0.21, 0.080, 4.0,   0.02, 0.45, 1.3,  1.3, 0.18),
        bench("povray",      Fp,  "ray tracing",                   1900.0, 2.8, 0.36, 0.28, 0.11, 0.035, 2.5,   0.005, 0.55, 0.6,  1.3, 0.45),
        bench("sjeng",       Int, "game AI (chess)",               1700.0, 1.8, 0.00, 0.27, 0.20, 0.090, 0.4,   0.01, 0.45, 0.8,  1.2, 0.22),
        bench("soplex",      Fp,  "linear programming",            900.0,  2.2, 0.30, 0.36, 0.10, 0.045, 60.0,  0.18, 0.45, 2.8,  1.7, 0.40),
        bench("sphinx3",     Fp,  "speech recognition",            2300.0, 2.7, 0.38, 0.32, 0.08, 0.025, 40.0,  0.20, 0.50, 2.5,  1.8, 0.55),
        bench("tonto",       Fp,  "quantum crystallography",      2600.0, 3.1, 0.39, 0.28, 0.07, 0.015, 2.0,   0.01, 0.55, 1.0,  1.5, 0.68),
        bench("wrf",         Fp,  "weather modelling",             2700.0, 2.9, 0.40, 0.33, 0.06, 0.014, 110.0, 0.35, 0.55, 4.5,  2.1, 0.70),
        bench("xalancbmk",   Int, "XML transformation",            1000.0, 1.5, 0.00, 0.37, 0.22, 0.078, 28.0,  0.08, 0.40, 1.6,  1.4, 0.14),
        bench("zeusmp",      Fp,  "astrophysical simulation",      2500.0, 3.0, 0.42, 0.34, 0.04, 0.010, 140.0, 0.40, 0.58, 5.5,  2.2, 0.74),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_29_benchmarks() {
        let suite = spec_cpu2006();
        assert_eq!(suite.len(), 29);
    }

    #[test]
    fn int_fp_split_matches_spec() {
        let suite = spec_cpu2006();
        let ints = suite.iter().filter(|b| b.suite == Suite::Int).count();
        let fps = suite.iter().filter(|b| b.suite == Suite::Fp).count();
        assert_eq!(ints, 12);
        assert_eq!(fps, 17);
    }

    #[test]
    fn names_are_unique_and_sorted() {
        let suite = spec_cpu2006();
        let names: Vec<&str> = suite.iter().map(|b| b.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_by_key(|n| n.to_lowercase());
        assert_eq!(names, sorted, "catalog must follow Figure 6/7 ordering");
        let unique: std::collections::BTreeSet<&&str> = names.iter().collect();
        assert_eq!(unique.len(), 29);
    }

    #[test]
    fn all_profiles_plausible() {
        for b in spec_cpu2006() {
            assert!(
                b.characteristics.is_plausible(),
                "{} has implausible characteristics",
                b.name
            );
        }
    }

    #[test]
    fn streaming_outliers_have_high_stream_fraction() {
        let suite = spec_cpu2006();
        for name in ["libquantum", "lbm", "leslie3d", "cactusADM"] {
            let b = suite.iter().find(|b| b.name == name).unwrap();
            assert!(
                b.characteristics.stream_fraction >= 0.5,
                "{name} stream fraction too low"
            );
        }
    }

    #[test]
    fn compute_outliers_are_regular_with_small_ws() {
        let suite = spec_cpu2006();
        for name in ["namd", "hmmer"] {
            let b = suite.iter().find(|b| b.name == name).unwrap();
            assert!(b.characteristics.regularity >= 0.9);
            assert!(b.characteristics.ilp >= 5.0);
            assert!(b.characteristics.working_set_mib <= 2.0);
        }
    }

    #[test]
    fn suite_display() {
        assert_eq!(Suite::Int.to_string(), "CINT2006");
        assert_eq!(Suite::Fp.to_string(), "CFP2006");
    }
}
