//! Jobs: a user's declared task matched to its candidate models.

use easeml_dsl::template::{match_templates, MatchedTemplate};
use easeml_dsl::{ModelId, Program};

/// Lifecycle of a job inside the task pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Submitted, waiting for its first training run.
    Queued,
    /// At least one model has been trained; exploration continues.
    Exploring,
    /// Every candidate model has been trained.
    Complete,
}

impl JobStatus {
    /// Stable lowercase name, as exported in JSON status snapshots.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Exploring => "exploring",
            JobStatus::Complete => "complete",
        }
    }
}

/// A user's task after schema matching: the parsed program, the matched
/// workload template, and the candidate models the scheduler explores.
#[derive(Debug, Clone)]
pub struct Job {
    user: usize,
    program: Program,
    matched: MatchedTemplate,
    /// Best (model index, accuracy) found so far.
    best: Option<(usize, f64)>,
    trained: Vec<bool>,
    /// Failed (censored) training runs charged to the job.
    pub(crate) failed: usize,
    /// Cost charged, censored runs included: added in run order from where
    /// `Iterator::sum` starts, so it rounds as a sum of the runs' costs.
    pub(crate) cost: f64,
}

impl Job {
    /// Creates a job by template-matching the program (Figure 4).
    ///
    /// # Errors
    ///
    /// Returns `Err` with a message when no template matches (cannot happen
    /// for valid programs — the last template is fully general — but the
    /// API stays fallible for robustness).
    pub fn new(user: usize, program: Program) -> Result<Self, String> {
        let matched = match_templates(&program)
            .ok_or_else(|| format!("no template matches program {program}"))?;
        let k = matched.models.len();
        Ok(Job {
            user,
            program,
            matched,
            best: None,
            trained: vec![false; k],
            failed: 0,
            cost: std::iter::empty::<f64>().sum(),
        })
    }

    /// The owning user (tenant index).
    #[inline]
    pub fn user(&self) -> usize {
        self.user
    }

    /// The declared schema.
    #[inline]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Candidate models produced by template matching.
    #[inline]
    pub fn candidate_models(&self) -> &[ModelId] {
        &self.matched.models
    }

    /// The matched workload class.
    #[inline]
    pub fn workload(&self) -> easeml_dsl::WorkloadKind {
        self.matched.workload
    }

    /// Current status.
    pub fn status(&self) -> JobStatus {
        if self.trained.iter().all(|&t| t) {
            JobStatus::Complete
        } else if self.trained.iter().any(|&t| t) {
            JobStatus::Exploring
        } else {
            JobStatus::Queued
        }
    }

    /// Records a finished training run of candidate `model_idx` reaching
    /// `accuracy`. Returns `true` when this improves the user's best model.
    ///
    /// # Panics
    ///
    /// Panics if `model_idx` is out of range.
    pub fn record_result(&mut self, model_idx: usize, accuracy: f64) -> bool {
        assert!(model_idx < self.trained.len(), "model index out of range");
        self.trained[model_idx] = true;
        if self.best.is_none_or(|(_, b)| accuracy > b) {
            self.best = Some((model_idx, accuracy));
            true
        } else {
            false
        }
    }

    /// The best model so far: what `infer` serves (§2.1's "view of the best
    /// available model").
    pub fn best_model(&self) -> Option<(ModelId, f64)> {
        self.best.map(|(idx, acc)| (self.matched.models[idx], acc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easeml_dsl::parse_program;

    fn image_job() -> Job {
        let p = parse_program("{input: {[Tensor[32, 32, 3]], []}, output: {[Tensor[10]], []}}")
            .unwrap();
        Job::new(0, p).unwrap()
    }

    #[test]
    fn template_matching_runs_at_creation() {
        let j = image_job();
        assert_eq!(j.candidate_models().len(), 8);
        assert_eq!(j.workload().to_string(), "Image/Tensor Classification");
        assert_eq!(j.status(), JobStatus::Queued);
        assert_eq!(j.user(), 0);
        assert!(j.best_model().is_none());
    }

    #[test]
    fn status_names_are_stable() {
        assert_eq!(JobStatus::Queued.name(), "queued");
        assert_eq!(JobStatus::Exploring.name(), "exploring");
        assert_eq!(JobStatus::Complete.name(), "complete");
    }

    #[test]
    fn lifecycle_queued_exploring_complete() {
        let mut j = image_job();
        assert!(j.record_result(0, 0.7));
        assert_eq!(j.status(), JobStatus::Exploring);
        for m in 1..8 {
            j.record_result(m, 0.5);
        }
        assert_eq!(j.status(), JobStatus::Complete);
    }

    #[test]
    fn best_model_tracks_improvements_only() {
        let mut j = image_job();
        assert!(j.record_result(3, 0.6));
        assert!(!j.record_result(1, 0.5));
        assert!(j.record_result(2, 0.9));
        let (model, acc) = j.best_model().unwrap();
        assert_eq!(model.name(), "ResNet-50");
        assert_eq!(acc, 0.9);
    }

    #[test]
    fn program_is_preserved() {
        let j = image_job();
        assert!(j.program().to_string().contains("Tensor[32, 32, 3]"));
    }
}
