//! Task scheduling on heterogeneous systems (paper §4, fourth application).
//!
//! "Data transposition may be an enabler to drive the scheduling algorithm
//! on heterogeneous systems by providing performance predictions for each
//! of the computing nodes." Jobs are applications of interest; nodes are
//! target machines. The scheduler predicts each job's throughput on each
//! node and greedily assigns jobs (longest predicted work first) to the
//! node that finishes them earliest — classic list scheduling, but fed by
//! predicted instead of measured performance.

use datatrans_dataset::characteristics::WorkloadCharacteristics;
use datatrans_dataset::database::PerfDatabase;
use datatrans_dataset::perf_model::execution_time_s;

use crate::model::Predictor;
use crate::task::PredictionTask;
use crate::{CoreError, Result};

/// A job assignment: which node runs which job.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Job index (into the submitted job list).
    pub job: usize,
    /// Machine index (into the database's machine list).
    pub node: usize,
}

/// Outcome of scheduling a job mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Job → node assignments.
    pub assignments: Vec<Assignment>,
    /// Makespan in seconds under *actual* execution times.
    pub makespan_s: f64,
}

/// Schedules `jobs` on the heterogeneous `nodes` using performance
/// predictions from `method`, then evaluates the schedule under the true
/// execution times.
///
/// The predictor never sees the true times: it predicts SPEC-style ratios
/// for each job on each node from the published benchmark data plus runs
/// on the `predictive` machines, exactly like the ranking pipeline.
///
/// # Errors
///
/// Returns [`CoreError`] for empty inputs or prediction failures.
pub fn schedule_jobs(
    db: &PerfDatabase,
    jobs: &[WorkloadCharacteristics],
    predictive: &[usize],
    nodes: &[usize],
    method: &dyn Predictor,
    seed: u64,
) -> Result<Schedule> {
    if jobs.is_empty() {
        return Err(CoreError::invalid_task("no jobs to schedule"));
    }
    // Predicted score of each job on each node.
    let mut predicted = Vec::with_capacity(jobs.len());
    for (ji, job) in jobs.iter().enumerate() {
        let task = PredictionTask::external_app(db, job, predictive, nodes, seed ^ (ji as u64))?;
        predicted.push(method.predict(&task)?);
    }
    let assignments = list_schedule(jobs, nodes, |ji, ni| {
        // Higher score = faster; convert to predicted time via the job's
        // instruction budget (score is inversely proportional to time).
        jobs[ji].instr_e9 / predicted[ji][ni].max(1e-9)
    });
    let makespan = evaluate_makespan(db, jobs, nodes, &assignments);
    Ok(Schedule {
        assignments,
        makespan_s: makespan,
    })
}

/// Oracle schedule: same algorithm, but fed the true execution times.
/// Lower bound for what prediction-driven scheduling can achieve.
pub fn schedule_oracle(
    db: &PerfDatabase,
    jobs: &[WorkloadCharacteristics],
    nodes: &[usize],
) -> Result<Schedule> {
    if jobs.is_empty() {
        return Err(CoreError::invalid_task("no jobs to schedule"));
    }
    let assignments = list_schedule(jobs, nodes, |ji, ni| {
        execution_time_s(&db.machines()[nodes[ni]].micro, &jobs[ji])
    });
    let makespan = evaluate_makespan(db, jobs, nodes, &assignments);
    Ok(Schedule {
        assignments,
        makespan_s: makespan,
    })
}

/// Naive baseline: round-robin assignment ignoring performance entirely.
pub fn schedule_round_robin(
    db: &PerfDatabase,
    jobs: &[WorkloadCharacteristics],
    nodes: &[usize],
) -> Result<Schedule> {
    if jobs.is_empty() {
        return Err(CoreError::invalid_task("no jobs to schedule"));
    }
    let assignments: Vec<Assignment> = (0..jobs.len())
        .map(|ji| Assignment {
            job: ji,
            node: nodes[ji % nodes.len()],
        })
        .collect();
    let makespan = evaluate_makespan(db, jobs, nodes, &assignments);
    Ok(Schedule {
        assignments,
        makespan_s: makespan,
    })
}

/// Longest-processing-time-first list scheduling with a per-(job, node)
/// time estimate. `node_index` arguments to `time_fn` are positions in
/// `nodes`, not database indices.
fn list_schedule(
    jobs: &[WorkloadCharacteristics],
    nodes: &[usize],
    time_fn: impl Fn(usize, usize) -> f64,
) -> Vec<Assignment> {
    // Order jobs by their best-case (minimum) estimated time, longest first.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    let best_time = |ji: usize| {
        (0..nodes.len())
            .map(|ni| time_fn(ji, ni))
            .fold(f64::INFINITY, f64::min)
    };
    order.sort_by(|&a, &b| {
        best_time(b)
            .partial_cmp(&best_time(a))
            .expect("finite estimates")
    });

    let mut node_load = vec![0.0; nodes.len()];
    let mut assignments = Vec::with_capacity(jobs.len());
    for ji in order {
        // Place on the node with the earliest finish time for this job.
        let mut best_node = 0;
        let mut best_finish = f64::INFINITY;
        for (ni, &load) in node_load.iter().enumerate() {
            let finish = load + time_fn(ji, ni);
            if finish < best_finish {
                best_finish = finish;
                best_node = ni;
            }
        }
        node_load[best_node] = best_finish;
        assignments.push(Assignment {
            job: ji,
            node: nodes[best_node],
        });
    }
    assignments.sort_by_key(|a| a.job);
    assignments
}

/// Makespan of an assignment under true execution times.
fn evaluate_makespan(
    db: &PerfDatabase,
    jobs: &[WorkloadCharacteristics],
    nodes: &[usize],
    assignments: &[Assignment],
) -> f64 {
    let mut load = std::collections::BTreeMap::new();
    for a in assignments {
        let t = execution_time_s(&db.machines()[a.node].micro, &jobs[a.job]);
        *load.entry(a.node).or_insert(0.0) += t;
    }
    let _ = nodes;
    load.values().cloned().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MlpT;
    use datatrans_dataset::generator::{generate, DatasetConfig};
    use datatrans_dataset::workload_synth::{synthesize, WorkloadProfile};

    fn setup() -> (
        PerfDatabase,
        Vec<WorkloadCharacteristics>,
        Vec<usize>,
        Vec<usize>,
    ) {
        let db = generate(&DatasetConfig::default()).unwrap();
        let jobs: Vec<WorkloadCharacteristics> = WorkloadProfile::ALL
            .iter()
            .flat_map(|&p| (0..2).map(move |s| synthesize(p, s)))
            .collect();
        // Heterogeneous cluster spanning five machine generations.
        let nodes = vec![108, 63, 72, 75, 27];
        // Predictive machines via k-medoids over everything else (§6.5).
        let pool: Vec<usize> = (0..db.n_machines())
            .filter(|m| !nodes.contains(m))
            .collect();
        let predictive = crate::select::select_k_medoids(&db, &pool, 5, 7).unwrap();
        (db, jobs, predictive, nodes)
    }

    #[test]
    fn all_jobs_assigned_exactly_once() {
        let (db, jobs, predictive, nodes) = setup();
        let s = schedule_jobs(&db, &jobs, &predictive, &nodes, &MlpT::default(), 1).unwrap();
        assert_eq!(s.assignments.len(), jobs.len());
        let job_set: std::collections::BTreeSet<usize> =
            s.assignments.iter().map(|a| a.job).collect();
        assert_eq!(job_set.len(), jobs.len());
        assert!(s.assignments.iter().all(|a| nodes.contains(&a.node)));
        assert!(s.makespan_s > 0.0);
    }

    #[test]
    fn predicted_schedule_beats_round_robin() {
        let (db, jobs, predictive, nodes) = setup();
        let predicted =
            schedule_jobs(&db, &jobs, &predictive, &nodes, &MlpT::default(), 1).unwrap();
        let naive = schedule_round_robin(&db, &jobs, &nodes).unwrap();
        assert!(
            predicted.makespan_s < naive.makespan_s,
            "predicted {:.1}s vs round-robin {:.1}s",
            predicted.makespan_s,
            naive.makespan_s
        );
    }

    #[test]
    fn oracle_bounds_predicted_schedule_loosely() {
        let (db, jobs, predictive, nodes) = setup();
        let predicted =
            schedule_jobs(&db, &jobs, &predictive, &nodes, &MlpT::default(), 1).unwrap();
        let oracle = schedule_oracle(&db, &jobs, &nodes).unwrap();
        // Greedy list scheduling is heuristic, but the predicted schedule
        // should be within 2x of the oracle's makespan on this mix.
        assert!(predicted.makespan_s <= 2.0 * oracle.makespan_s);
        assert!(oracle.makespan_s > 0.0);
    }

    #[test]
    fn rejects_empty_jobs() {
        let (db, _, predictive, nodes) = setup();
        assert!(schedule_jobs(&db, &[], &predictive, &nodes, &MlpT::default(), 1).is_err());
        assert!(schedule_oracle(&db, &[], &nodes).is_err());
        assert!(schedule_round_robin(&db, &[], &nodes).is_err());
    }
}
