//! Pareto-frontier extraction for two-objective sweeps (e.g. per-unit cost
//! vs chiplet count, or RE vs NRE).
//!
//! [`pareto_min_indices`] sorts its input, so a large sweep should hand it
//! candidates rather than every point. A point that another input point
//! weakly dominates and that sorts after it (the sort is stable, so equal
//! points keep input order) is never kept, and dropping it never changes
//! the scan. The grid fronts
//! ([`crate::portfolio::PortfolioResult::pareto_front`] and
//! [`crate::portfolio::PortfolioResult::pareto_program`]) use this per
//! group: the cells of one chiplet-count (or quantity) axis index share
//! that coordinate, so the group's first cheapest cell in grid order
//! weakly dominates and precedes the rest, and the front over one such
//! representative per axis index is the front over every cell.

/// Returns the indices of the non-dominated points when *minimizing both*
/// objectives, sorted by the first objective ascending.
///
/// A point dominates another if it is no worse in both objectives and
/// strictly better in at least one. Duplicated points are kept once.
///
/// # Examples
///
/// ```
/// use actuary_dse::pareto::pareto_min_indices;
///
/// let points = [(1.0, 5.0), (2.0, 3.0), (3.0, 4.0), (4.0, 1.0)];
/// let frontier = pareto_min_indices(&points);
/// assert_eq!(frontier, vec![0, 1, 3]); // (3,4) is dominated by (2,3)
/// ```
pub fn pareto_min_indices(points: &[(f64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    // Sort by first objective ascending, tie-break second ascending.
    order.sort_by(|&a, &b| {
        points[a]
            .0
            .partial_cmp(&points[b].0)
            .expect("objectives must be finite")
            .then(
                points[a]
                    .1
                    .partial_cmp(&points[b].1)
                    .expect("objectives must be finite"),
            )
    });
    let mut frontier = Vec::new();
    let mut best_second = f64::INFINITY;
    let mut last_point: Option<(f64, f64)> = None;
    for idx in order {
        let p = points[idx];
        if Some(p) == last_point {
            continue; // exact duplicate
        }
        if p.1 < best_second {
            frontier.push(idx);
            best_second = p.1;
            last_point = Some(p);
        }
    }
    frontier
}

/// Convenience wrapper returning the non-dominated points themselves.
pub fn pareto_min(points: &[(f64, f64)]) -> Vec<(f64, f64)> {
    pareto_min_indices(points)
        .into_iter()
        .map(|i| points[i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn simple_frontier() {
        let points = [(1.0, 5.0), (2.0, 3.0), (3.0, 4.0), (4.0, 1.0)];
        assert_eq!(pareto_min_indices(&points), vec![0, 1, 3]);
        assert_eq!(
            pareto_min(&points),
            vec![(1.0, 5.0), (2.0, 3.0), (4.0, 1.0)]
        );
    }

    #[test]
    fn single_point() {
        assert_eq!(pareto_min_indices(&[(1.0, 1.0)]), vec![0]);
    }

    #[test]
    fn empty() {
        assert!(pareto_min_indices(&[]).is_empty());
    }

    #[test]
    fn dominated_duplicates_collapse() {
        let points = [(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)];
        assert_eq!(pareto_min_indices(&points), vec![0]);
    }

    #[test]
    fn ties_on_first_objective() {
        // Same cost, different second objective: only the better survives.
        let points = [(1.0, 5.0), (1.0, 3.0)];
        assert_eq!(pareto_min_indices(&points), vec![1]);
    }

    proptest! {
        #[test]
        fn frontier_points_are_mutually_non_dominated(
            xs in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..50),
        ) {
            let frontier = pareto_min_indices(&xs);
            prop_assert!(!frontier.is_empty());
            for (i, &a) in frontier.iter().enumerate() {
                for &b in frontier.iter().skip(i + 1) {
                    let (pa, pb) = (xs[a], xs[b]);
                    let a_dominates = pa.0 <= pb.0 && pa.1 <= pb.1 && (pa.0 < pb.0 || pa.1 < pb.1);
                    let b_dominates = pb.0 <= pa.0 && pb.1 <= pa.1 && (pb.0 < pa.0 || pb.1 < pa.1);
                    prop_assert!(!a_dominates && !b_dominates);
                }
            }
        }

        #[test]
        fn every_point_dominated_by_some_frontier_point(
            xs in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..50),
        ) {
            let frontier = pareto_min_indices(&xs);
            for (i, p) in xs.iter().enumerate() {
                if frontier.contains(&i) { continue; }
                let covered = frontier.iter().any(|&f| {
                    xs[f].0 <= p.0 && xs[f].1 <= p.1
                });
                prop_assert!(covered, "point {i} not covered by the frontier");
            }
        }
    }
}
