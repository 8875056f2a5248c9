//! Brute-force grid search over the angle hypercube.
//!
//! One of the "other common angle-finding methods" the paper lists.  Only practical at
//! very small `p` (the grid has `resolution^{2p}` points), but useful as a ground truth
//! for `p = 1` landscapes and in tests.
//!
//! Grid points are independent, so the scan fans contiguous index blocks out across
//! cores — each worker with its own objective instance (and therefore its own
//! simulation workspace), inner statevector kernels pinned serial by the
//! `juliqaoa_linalg::parallel` guard.  Points are totally ordered by their linear
//! index and ties resolve to the lowest index, so the parallel scan returns exactly
//! the serial scan's result.
//!
//! # Axis order
//!
//! The odometer mapping from linear index to coordinates is configurable: `order[d]`
//! names the coordinate that digit `d` (digit 0 fastest) drives.  For QAOA objectives
//! use [`qaoa_axis_order`], which makes the **deepest round's angles the
//! fastest-varying axes**: consecutive grid points then share a `p−1`-round circuit
//! prefix, so an objective whose workspace keeps prefix checkpoints re-evolves one
//! round per point instead of `p` — the sweep-level payoff of
//! `juliqaoa_core::PrefixCache`.  The visited point
//! set is the full Cartesian grid either way; only the scan order (and therefore
//! which point wins exact-tie comparisons) depends on the order.
//!
//! Inside a block the odometer is advanced incrementally — digit increment plus carry,
//! updating only the coordinates whose digits changed — instead of a per-point
//! div/mod decode.  Coordinates are always recomputed from their integer digit
//! (`lo + (digit + 0.5)·step`), never accumulated, so the scanned points are
//! bit-identical to a cold decode.

use crate::control::RunControl;
use crate::objective::{Objective, OptimizeResult};
use juliqaoa_linalg::{enter_outer_parallelism, in_outer_parallelism};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Minimum number of grid points before fanning out across threads pays.
const MIN_PARALLEL_POINTS: u128 = 256;

/// Cancellation and deadline expiry are polled once per this many grid points inside
/// a block scan.
const CANCEL_POLL_STRIDE: usize = 1024;

/// The axis order that maximises circuit-prefix sharing for a flat QAOA angle vector
/// `[β_1…β_p, γ_1…γ_p]`: digits drive, fastest first, `β_p, γ_p, β_{p−1}, γ_{p−1}, …`
/// — the deepest round varies fastest, and within a round `β` varies faster than `γ`
/// (so a prefix cache's post-phase-separator tail checkpoint serves the innermost
/// loop).
pub fn qaoa_axis_order(p: usize) -> Vec<usize> {
    assert!(p > 0, "QAOA axis order needs at least one round");
    let mut order = Vec::with_capacity(2 * p);
    for depth in 0..p {
        let round = p - 1 - depth;
        order.push(round); // β of this round
        order.push(p + round); // γ of this round
    }
    order
}

/// Writes the coordinates of grid point `index` into `point`, under the digit→axis
/// mapping `order`; every cell is sampled at its midpoint.
fn point_at(
    index: usize,
    resolution: usize,
    lo: f64,
    step: f64,
    order: &[usize],
    point: &mut [f64],
) {
    let mut rest = index;
    for &axis in order {
        let digit = rest % resolution;
        rest /= resolution;
        point[axis] = lo + (digit as f64 + 0.5) * step;
    }
}

/// The geometry of one scan: per-axis resolution, box origin, cell width, digit order.
#[derive(Clone, Copy)]
struct GridShape<'o> {
    resolution: usize,
    lo: f64,
    step: f64,
    order: &'o [usize],
}

/// Scans grid indices `[start, end)`, returning the best `(value, index, scanned)` of
/// the block (strict `<`, so the lowest index wins ties).  Cancellation is polled every
/// [`CANCEL_POLL_STRIDE`] points; a cancelled scan returns the best of the points it
/// reached.
fn scan_block<O: Objective + ?Sized>(
    objective: &mut O,
    start: usize,
    end: usize,
    grid: GridShape<'_>,
    control: &RunControl,
) -> (f64, usize, usize) {
    let dim = grid.order.len();
    let mut point = vec![grid.lo; dim];
    // Decode the block's first point once; afterwards the odometer advances by
    // increment-and-carry, touching only the digits (and coordinates) that change.
    let mut digits = vec![0usize; dim];
    {
        let mut rest = start;
        for digit in digits.iter_mut() {
            *digit = rest % grid.resolution;
            rest /= grid.resolution;
        }
    }
    for (d, &axis) in grid.order.iter().enumerate() {
        point[axis] = grid.lo + (digits[d] as f64 + 0.5) * grid.step;
    }
    let mut best_value = f64::INFINITY;
    let mut best_index = start;
    let mut scanned = 0;
    for index in start..end {
        if scanned % CANCEL_POLL_STRIDE == 0 && control.should_stop() {
            break;
        }
        let value = objective.value(&point);
        scanned += 1;
        if value < best_value {
            best_value = value;
            best_index = index;
        }
        // Advance the odometer (skipped after the block's last point).
        if index + 1 < end {
            for (d, &axis) in grid.order.iter().enumerate() {
                digits[d] += 1;
                if digits[d] == grid.resolution {
                    digits[d] = 0;
                    point[axis] = grid.lo + 0.5 * grid.step;
                    // Carry into the next digit.
                } else {
                    point[axis] = grid.lo + (digits[d] as f64 + 0.5) * grid.step;
                    break;
                }
            }
        }
    }
    (best_value, best_index, scanned)
}

/// Evaluates the objective on a regular grid over `[lo, hi)^dim` with `resolution`
/// points per axis, returning the best grid point.
///
/// `make_objective` builds one objective instance per worker thread; the grid is
/// scanned in parallel blocks when large enough.  Axis 0 varies fastest; for QAOA
/// objectives prefer [`grid_search_ordered`] with [`qaoa_axis_order`].
///
/// # Panics
/// Panics if `resolution == 0`, `dim == 0`, or the grid would exceed `10^8` points.
pub fn grid_search<O, F>(
    make_objective: F,
    dim: usize,
    lo: f64,
    hi: f64,
    resolution: usize,
) -> OptimizeResult
where
    O: Objective,
    F: Fn() -> O + Sync,
{
    let order: Vec<usize> = (0..dim).collect();
    grid_search_ordered(
        make_objective,
        dim,
        lo,
        hi,
        resolution,
        &order,
        &RunControl::new(),
    )
}

/// [`grid_search`] with an explicit digit→axis `order` (see the module docs), which
/// must be a permutation of `0..dim`, and cooperative cancellation and progress
/// reporting.
///
/// Progress units are scanned grid points, reported per finished block.  A cancelled
/// scan returns the best of the points actually visited with `converged = false`; an
/// uncancelled run with the identity order is bit-identical to [`grid_search`].
///
/// # Panics
/// Panics if `resolution == 0`, `dim == 0`, `order` is not a permutation of `0..dim`,
/// or the grid would exceed `10^8` points.
pub fn grid_search_ordered<O, F>(
    make_objective: F,
    dim: usize,
    lo: f64,
    hi: f64,
    resolution: usize,
    order: &[usize],
    control: &RunControl,
) -> OptimizeResult
where
    O: Objective,
    F: Fn() -> O + Sync,
{
    assert!(resolution > 0, "grid resolution must be positive");
    assert!(dim > 0, "grid search needs at least one dimension");
    assert_eq!(order.len(), dim, "axis order must name every dimension");
    {
        let mut seen = vec![false; dim];
        for &axis in order {
            assert!(
                axis < dim && !std::mem::replace(&mut seen[axis], true),
                "axis order must be a permutation of 0..{dim}"
            );
        }
    }
    let total_wide = (resolution as u128).pow(dim as u32);
    assert!(
        total_wide <= 100_000_000,
        "grid of {total_wide} points is too large"
    );
    let total = total_wide as usize;

    let step = (hi - lo) / resolution as f64;
    let grid = GridShape {
        resolution,
        lo,
        step,
        order,
    };
    let threads = rayon::current_num_threads();
    let progress = AtomicU64::new(0);

    // Like the candidate loop of `random_restart`, stay serial when the caller is
    // already a worker of an outer parallel region (e.g. a batched job runner).
    let (best_value, best_index, scanned) =
        if total_wide >= MIN_PARALLEL_POINTS && threads > 1 && !in_outer_parallelism() {
            // Contiguous index blocks, a few per thread for load balance.
            let blocks = (threads * 4).min(total);
            let block_bests: Vec<(f64, usize, usize)> = (0..blocks)
                .into_par_iter()
                .map_init(
                    || (enter_outer_parallelism(), make_objective()),
                    |(_guard, objective), block| {
                        let start = block * total / blocks;
                        let end = (block + 1) * total / blocks;
                        let out = scan_block(objective, start, end, grid, control);
                        control.report(
                            // relaxed: progress tally; commutative adds, value is advisory.
                            progress.fetch_add(out.2 as u64, Ordering::Relaxed) + out.2 as u64,
                            total as u64,
                        );
                        out
                    },
                )
                .collect();
            // Blocks are in index order; strict `<` keeps the lowest-index winner.
            let mut best = (f64::INFINITY, 0usize, 0usize);
            for (value, index, scanned) in block_bests {
                best.2 += scanned;
                if value < best.0 {
                    best.0 = value;
                    best.1 = index;
                }
            }
            best
        } else {
            let mut objective = make_objective();
            let out = scan_block(&mut objective, 0, total, grid, control);
            control.report(out.2 as u64, total as u64);
            out
        };

    let mut best_x = vec![lo; dim];
    point_at(best_index, resolution, lo, step, order, &mut best_x);
    OptimizeResult {
        x: best_x,
        value: best_value,
        iterations: scanned,
        function_evals: scanned,
        gradient_evals: 0,
        converged: scanned == total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FnObjective;

    #[test]
    fn finds_minimum_of_separable_quadratic() {
        let res = grid_search(
            || FnObjective::new(2, |x: &[f64]| (x[0] - 0.5).powi(2) + (x[1] + 0.5).powi(2)),
            2,
            -1.0,
            1.0,
            20,
        );
        assert!((res.x[0] - 0.5).abs() < 0.1);
        assert!((res.x[1] + 0.5).abs() < 0.1);
        assert_eq!(res.function_evals, 400);
    }

    #[test]
    fn single_point_grid() {
        let res = grid_search(
            || FnObjective::new(1, |x: &[f64]| x[0].abs()),
            1,
            0.0,
            2.0,
            1,
        );
        assert_eq!(res.function_evals, 1);
        assert_eq!(res.x, vec![1.0]); // midpoint of the only cell
    }

    #[test]
    fn resolution_refines_accuracy() {
        let f = |x: &[f64]| (x[0] - 0.123).powi(2);
        let c = grid_search(|| FnObjective::new(1, f), 1, 0.0, 1.0, 4);
        let g = grid_search(|| FnObjective::new(1, f), 1, 0.0, 1.0, 200);
        assert!(g.value <= c.value);
        assert!((g.x[0] - 0.123).abs() < 0.01);
    }

    #[test]
    fn parallel_block_scan_matches_serial_scan() {
        // 40_000 points is far above MIN_PARALLEL_POINTS; on a multi-core host this
        // takes the block-parallel path (tests/outer_parallel.rs forces that schedule
        // even on one core via RAYON_NUM_THREADS).  Either way the result must equal
        // a plain serial scan with lowest-index tie-breaking.
        let f = |x: &[f64]| ((x[0] * 3.1).sin() + (x[1] * 1.7).cos()).abs();
        let parallel = grid_search(|| FnObjective::new(2, f), 2, -2.0, 2.0, 200);
        let mut serial_obj = FnObjective::new(2, f);
        let order = [0usize, 1];
        let serial = scan_block(
            &mut serial_obj,
            0,
            40_000,
            GridShape {
                resolution: 200,
                lo: -2.0,
                step: 4.0 / 200.0,
                order: &order,
            },
            &RunControl::new(),
        );
        assert_eq!(parallel.value, serial.0);
        let mut expected_x = vec![0.0; 2];
        point_at(serial.1, 200, -2.0, 4.0 / 200.0, &order, &mut expected_x);
        assert_eq!(parallel.x, expected_x);
        assert_eq!(serial.2, 40_000);
    }

    #[test]
    fn incremental_odometer_matches_per_point_decode() {
        // Every point the carry odometer visits must be bit-identical to a fresh
        // div/mod decode of its index, including across block boundaries.
        for &(start, end) in &[(0usize, 125usize), (7, 100), (123, 125), (60, 61)] {
            let grid = GridShape {
                resolution: 5,
                lo: -1.0,
                step: 0.4,
                order: &[2, 0, 1],
            };
            let visited = std::cell::RefCell::new(Vec::new());
            let mut probe = FnObjective::new(3, |x: &[f64]| {
                visited.borrow_mut().push(x.to_vec());
                0.0
            });
            let (_, _, scanned) = scan_block(&mut probe, start, end, grid, &RunControl::new());
            assert_eq!(scanned, end - start);
            for (offset, point) in visited.borrow().iter().enumerate() {
                let mut expected = vec![0.0; 3];
                point_at(start + offset, 5, -1.0, 0.4, grid.order, &mut expected);
                for (a, b) in point.iter().zip(expected.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn ordered_scan_visits_the_same_point_set() {
        // The suffix-major order permutes the scan sequence, never the grid itself:
        // both orders must find the same (unique) minimizer of a tie-free function.
        let f = |x: &[f64]| (x[0] - 0.31).powi(2) + (x[1] + 0.77).powi(2) + 0.1 * x[2] + x[3];
        let standard = grid_search(|| FnObjective::new(4, f), 4, -1.0, 1.0, 7);
        let order = qaoa_axis_order(2);
        let suffix = grid_search_ordered(
            || FnObjective::new(4, f),
            4,
            -1.0,
            1.0,
            7,
            &order,
            &RunControl::new(),
        );
        assert_eq!(standard.x, suffix.x);
        assert_eq!(standard.value, suffix.value);
        assert_eq!(standard.function_evals, suffix.function_evals);
    }

    #[test]
    fn qaoa_axis_order_puts_the_deepest_round_first() {
        // p = 3, flat layout [β1 β2 β3 γ1 γ2 γ3]: digits drive β3 γ3 β2 γ2 β1 γ1.
        assert_eq!(qaoa_axis_order(3), vec![2, 5, 1, 4, 0, 3]);
        assert_eq!(qaoa_axis_order(1), vec![0, 1]);
    }

    #[test]
    #[should_panic]
    fn non_permutation_order_panics() {
        let _ = grid_search_ordered(
            || FnObjective::new(2, |x: &[f64]| x[0] + x[1]),
            2,
            0.0,
            1.0,
            3,
            &[0, 0],
            &RunControl::new(),
        );
    }

    #[test]
    fn pre_cancelled_scan_visits_no_points_and_reports_unconverged() {
        let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let control = RunControl::with_cancel(flag);
        let res = grid_search_ordered(
            || FnObjective::new(2, |x: &[f64]| x[0] + x[1]),
            2,
            0.0,
            1.0,
            100,
            &[0, 1],
            &control,
        );
        assert!(!res.converged);
        assert_eq!(res.function_evals, 0);
    }

    #[test]
    fn progress_reports_reach_the_full_grid() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let seen = std::sync::Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        let control = RunControl::new().on_progress(move |done, _total| {
            seen2.fetch_max(done, Ordering::Relaxed);
        });
        let res = grid_search_ordered(
            || FnObjective::new(2, |x: &[f64]| x[0] * x[1]),
            2,
            0.0,
            1.0,
            40,
            &[0, 1],
            &control,
        );
        assert!(res.converged);
        assert_eq!(seen.load(Ordering::Relaxed), 1600);
    }

    #[test]
    fn point_index_decomposition_matches_odometer_order() {
        // Identity order: axis 0 varies fastest — index 1 moves axis 0, index
        // `resolution` moves axis 1.
        let order = [0usize, 1];
        let mut p = vec![0.0; 2];
        point_at(0, 10, 0.0, 0.1, &order, &mut p);
        assert!((p[0] - 0.05).abs() < 1e-12 && (p[1] - 0.05).abs() < 1e-12);
        point_at(1, 10, 0.0, 0.1, &order, &mut p);
        assert!((p[0] - 0.15).abs() < 1e-12 && (p[1] - 0.05).abs() < 1e-12);
        point_at(10, 10, 0.0, 0.1, &order, &mut p);
        assert!((p[0] - 0.05).abs() < 1e-12 && (p[1] - 0.15).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn oversized_grid_panics() {
        let _ = grid_search(|| FnObjective::new(6, |_: &[f64]| 0.0), 6, 0.0, 1.0, 100);
    }
}
