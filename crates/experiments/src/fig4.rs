//! Fig. 4 — convergence under the six curriculum orderings (§III-D).
//!
//! Trains one fresh agent per ordering of {sampled, real, synthetic} job
//! sets and records the replay loss after every episode. The paper's
//! finding: *sampled → real → synthetic* converges fastest to the lowest
//! MSE. Each ordering is a [`jobset_curriculum`] through the training
//! engine, so the recommended ordering's curve belongs to exactly the
//! agent Figs. 5–7 evaluate.

use crate::comparison::{jobset_curriculum, train_mrsch_on};
use crate::scale::ExpScale;
use mrsch_eval::table::{self, Table};
use mrsch_workload::jobset::CurriculumOrder;
use mrsch_workload::suite::WorkloadSpec;

/// Loss curve for one curriculum ordering.
#[derive(Clone, Debug)]
pub struct Fig4Curve {
    /// Legend label, e.g. `"Sampled+Real+Synthetic"`.
    pub label: String,
    /// Replay loss after each training episode.
    pub losses: Vec<f32>,
}

/// Train one agent per ordering and collect loss curves.
pub fn run(scale: &ExpScale, seed: u64) -> Vec<Fig4Curve> {
    let spec = WorkloadSpec::s1();
    CurriculumOrder::all()
        .into_iter()
        .map(|order| {
            let curriculum = jobset_curriculum(order, &spec, scale, seed);
            let (_, outcome) = train_mrsch_on(&spec, scale, seed, &curriculum);
            // Single-episode phases: one round, hence one loss, each.
            let losses = outcome.phases.iter().flat_map(|p| p.round_losses.clone()).collect();
            Fig4Curve { label: order.label(), losses }
        })
        .collect()
}

/// Label of the ordering with the lowest final (finite) loss.
pub fn best_final(curves: &[Fig4Curve]) -> Option<String> {
    curves
        .iter()
        .filter_map(|c| {
            c.losses
                .iter()
                .rev()
                .find(|l| l.is_finite())
                .map(|l| (c.label.clone(), *l))
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(label, _)| label)
}

/// The curves, one row per (ordering, episode), plus the ordering that
/// ends lowest.
pub fn tables(scale: &ExpScale, seed: u64) -> Vec<Table> {
    let curves = run(scale, seed);
    let rows = curves
        .iter()
        .flat_map(|c| {
            c.losses.iter().enumerate().map(move |(i, l)| {
                vec![c.label.clone(), i.to_string(), table::f(*l as f64)]
            })
        })
        .collect();
    let best = Table::new(
        "lowest final loss",
        vec!["ordering"],
        best_final(&curves).into_iter().map(|label| vec![label]).collect(),
    );
    let title = "Fig. 4 — training loss by curriculum ordering";
    vec![Table::new(title, vec!["ordering", "episode", "loss"], rows), best]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::tiny_scale;

    #[test]
    #[ignore = "experiment-scale (6 curricula); run with --ignored / in CI"]
    fn six_curves_with_expected_lengths() {
        let scale = tiny_scale(ExpScale::quick().eval_jobs, 15);
        let curves = run(&scale, 21);
        assert_eq!(curves.len(), 6);
        let expected = scale.sets_per_phase * 3 * scale.train_rounds;
        for c in &curves {
            assert_eq!(c.losses.len(), expected);
        }
        // Labels are the six distinct orderings.
        let mut labels: Vec<&str> = curves.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn best_final_returns_some_label() {
        let curves = vec![
            Fig4Curve { label: "a".into(), losses: vec![1.0, 0.5] },
            Fig4Curve { label: "b".into(), losses: vec![1.0, 0.2] },
        ];
        assert_eq!(best_final(&curves), Some("b".into()));
    }
}
