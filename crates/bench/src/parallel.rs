//! Deterministic parallel sweep runner.
//!
//! Every campaign binary sweeps a grid of independent, seeded cells
//! (protocol × batch × window, fault-rate points, policy variants, …) —
//! each cell is a pure function of its parameters, so the only thing
//! serializing a full sweep was the `for` loop around it. [`run_cells`]
//! fans the cells out over `jobs` worker threads (`std::thread::scope`,
//! no dependencies) and merges results **in canonical cell order**: the
//! returned vector is indexed exactly like the input, so tables, JSON
//! records, and self-validation see byte-identical data whether the sweep
//! ran on 1 thread or 16. CI asserts this with a `--jobs 1` vs `--jobs N`
//! byte-compare of the emitted sweep JSON.
//!
//! Scheduling is a shared atomic cursor (work stealing by index): threads
//! claim the next unstarted cell, so a grid of unequal cell costs load-
//! balances without any cost model. The worker count changes *which
//! thread* computes a cell but never *what* it computes — cells must not
//! share mutable state (the binaries derive per-cell RNG streams from
//! per-cell seeds, never a shared sequential generator). A whole campaign
//! runs in one process: its longest cell, not the grid, bounds its time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `work` over every cell, on `jobs` threads, returning results in
/// input order. `jobs` is clamped to `[1, cells.len()]`; `jobs == 1` runs
/// inline on the caller's thread (no pool, no locks).
pub fn run_cells<T, R, F>(cells: &[T], jobs: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, cells.len().max(1));
    if jobs <= 1 {
        return cells.iter().map(&work).collect();
    }
    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= cells.len() {
                    break;
                }
                let r = work(&cells[i]);
                *results[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            m.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| panic!("cell {i} produced no result (worker panicked?)"))
        })
        .collect()
}

/// The default worker count: the machine's available parallelism (1 when
/// it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order_regardless_of_jobs() {
        let cells: Vec<u64> = (0..100).collect();
        let sequential = run_cells(&cells, 1, |c| c * c);
        for jobs in [2, 3, 8, 64, 1000] {
            let parallel = run_cells(&cells, jobs, |c| c * c);
            assert_eq!(parallel, sequential, "jobs={jobs} must merge canonically");
        }
    }

    #[test]
    fn unequal_cell_costs_still_merge_in_order() {
        let cells: Vec<u64> = (0..32).collect();
        let out = run_cells(&cells, 4, |c| {
            // Inverted cost gradient: the first-claimed cells finish last.
            std::thread::sleep(std::time::Duration::from_micros(200 - c * 6));
            *c
        });
        assert_eq!(out, cells);
    }

    #[test]
    fn empty_and_single_cell_grids() {
        let none: Vec<u32> = Vec::new();
        assert!(run_cells(&none, 8, |c| *c).is_empty());
        assert_eq!(run_cells(&[7u32], 8, |c| *c), vec![7]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
