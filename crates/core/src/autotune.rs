//! Automated runtime tuning — the paper's §IV-F future work items:
//! "an automated tuning system for selecting the best-performing MPI
//! pattern without exploring all three options manually, and another
//! level of automated tuning for custom decompositions for the *full*
//! mode", plus the loop-blocking autotuning mentioned in §IV-C.
//!
//! The tuner runs short timed trials of the compiled operator on
//! scratch workspaces (leaving user data untouched) and picks the
//! fastest configuration.

use std::time::Instant;

use mpix_codegen::{available_backends, Backend};
use mpix_comm::dims_create;
use mpix_dmp::HaloMode;

use crate::operator::{ApplyOptions, Operator};
use crate::workspace::Workspace;

/// Result of a tuning sweep: the chosen configuration plus the measured
/// trial times for transparency.
#[derive(Clone, Debug)]
pub struct TuneReport<C> {
    pub best: C,
    /// `(candidate, seconds)` for every trial, in sweep order.
    pub trials: Vec<(C, f64)>,
}

/// Pick the fastest trial with a *total* order on times. `total_cmp`
/// sorts every NaN after every real number, so a pathological trial
/// (e.g. a zero-duration clock anomaly propagated through a division)
/// loses to any finite measurement instead of panicking the whole sweep
/// the way `partial_cmp(..).unwrap()` did.
fn best_trial<C: Clone>(trials: &[(C, f64)]) -> C {
    trials
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("tuning sweep ran at least one trial")
        .0
        .clone()
}

impl Operator {
    /// One candidate measurement: an untimed warm-up run amortizes
    /// first-touch allocation, lazy compilation, and thread-pool spin-up
    /// effects, then an identical run is timed. Every tuner goes through
    /// this helper so no sweep accidentally times its cold run.
    fn timed_trial<FI>(&self, opts: &ApplyOptions, init: &FI) -> f64
    where
        FI: Fn(&mut Workspace) + Send + Sync,
    {
        self.run(opts, init, |_| ());
        let t0 = Instant::now();
        self.run(opts, init, |_| ());
        t0.elapsed().as_secs_f64()
    }

    /// Select the fastest halo-exchange pattern for this operator at the
    /// given rank count by running `trial_nt` timed steps per mode on
    /// scratch data (model parameters seeded by `init`).
    pub fn autotune_mode<FI>(
        &self,
        nranks: usize,
        topology: Option<Vec<usize>>,
        base: &ApplyOptions,
        trial_nt: i64,
        init: FI,
    ) -> TuneReport<HaloMode>
    where
        FI: Fn(&mut Workspace) + Send + Sync,
    {
        let mut trials = Vec::new();
        for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
            let mut opts = base
                .clone()
                .with_mode(mode)
                .with_nt(trial_nt)
                .with_ranks(nranks);
            opts.topology = topology.clone();
            trials.push((mode, self.timed_trial(&opts, &init)));
        }
        let best = best_trial(&trials);
        TuneReport { best, trials }
    }

    /// Select the fastest cache-blocking tile from `candidates` with
    /// single-rank trials (blocking is a per-rank concern).
    pub fn autotune_block<FI>(
        &self,
        base: &ApplyOptions,
        trial_nt: i64,
        candidates: &[usize],
        init: FI,
    ) -> TuneReport<usize>
    where
        FI: Fn(&mut Workspace) + Send + Sync,
    {
        assert!(!candidates.is_empty(), "autotune_block needs candidates");
        let mut trials = Vec::new();
        for &block in candidates {
            let mut opts = base
                .clone()
                .with_block(block)
                .with_nt(trial_nt)
                .with_ranks(1);
            opts.topology = None;
            trials.push((block, self.timed_trial(&opts, &init)));
        }
        let best = best_trial(&trials);
        TuneReport { best, trials }
    }

    /// Select the fastest execution backend on this host. Sweeps every
    /// entry of [`available_backends`] (so an absent JIT is simply never
    /// tried) with single-rank trials — backend choice, like blocking,
    /// is a per-rank concern.
    pub fn autotune_backend<FI>(
        &self,
        base: &ApplyOptions,
        trial_nt: i64,
        init: FI,
    ) -> TuneReport<Backend>
    where
        FI: Fn(&mut Workspace) + Send + Sync,
    {
        let mut trials = Vec::new();
        for backend in available_backends() {
            let mut opts = base
                .clone()
                .with_backend(backend)
                .with_nt(trial_nt)
                .with_ranks(1);
            opts.topology = None;
            trials.push((backend, self.timed_trial(&opts, &init)));
        }
        let best = best_trial(&trials);
        TuneReport { best, trials }
    }

    /// Tune the process-grid topology for the *full* pattern (§IV-F:
    /// "customizing the decomposition to only split in x and y" can beat
    /// the balanced default). Sweeps the balanced factorization plus the
    /// axis-restricted variants that keep the innermost dimension
    /// contiguous.
    pub fn autotune_topology<FI>(
        &self,
        nranks: usize,
        base: &ApplyOptions,
        trial_nt: i64,
        init: FI,
    ) -> TuneReport<Vec<usize>>
    where
        FI: Fn(&mut Workspace) + Send + Sync,
    {
        let nd = self.grid().ndim();
        let mut candidates: Vec<Vec<usize>> = vec![dims_create(nranks, nd)];
        if nd == 3 {
            // Split only x/y (keep z whole: unbroken vector dimension).
            let mut xy = dims_create(nranks, 2);
            xy.push(1);
            candidates.push(xy);
            // Split only x (maximal slabs).
            candidates.push(vec![nranks, 1, 1]);
        } else if nd == 2 {
            candidates.push(vec![nranks, 1]);
        }
        candidates.retain(|c| {
            c.iter()
                .zip(self.grid().shape.iter())
                .all(|(&p, &s)| p <= s)
        });
        candidates.dedup();
        let mut trials = Vec::new();
        for topo in candidates {
            let opts = base
                .clone()
                .with_nt(trial_nt)
                .with_ranks(nranks)
                .with_topology(&topo);
            let secs = self.timed_trial(&opts, &init);
            trials.push((topo, secs));
        }
        let best = best_trial(&trials);
        TuneReport { best, trials }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpix_symbolic::{Context, Eq, Grid};

    fn op() -> Operator {
        let mut ctx = Context::new();
        let grid = Grid::new(&[16, 16], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &grid, 4, 1);
        let eq = Eq::new(u.dt(), u.laplace());
        let st = eq.solve_for(&u.forward(), &ctx).unwrap();
        Operator::build(ctx, grid, vec![st]).unwrap()
    }

    #[test]
    fn mode_tuner_tries_all_three_and_picks_a_valid_mode() {
        let op = op();
        let base = ApplyOptions::default().with_dt(0.001);
        let report = op.autotune_mode(4, None, &base, 3, |ws| {
            ws.field_data_mut("u", 0)
                .fill_global_slice(&[4..12, 4..12], 1.0);
        });
        assert_eq!(report.trials.len(), 3);
        assert!(report.trials.iter().any(|(m, _)| *m == report.best));
        assert!(report.trials.iter().all(|(_, t)| *t > 0.0));
    }

    #[test]
    fn block_tuner_picks_from_candidates() {
        let op = op();
        let base = ApplyOptions::default().with_dt(0.001);
        let report = op.autotune_block(&base, 2, &[0, 4, 8], |_| ());
        assert!([0, 4, 8].contains(&report.best));
        assert_eq!(report.trials.len(), 3);
    }

    #[test]
    fn topology_tuner_includes_axis_restricted_candidates() {
        let op = op();
        let base = ApplyOptions::default()
            .with_dt(0.001)
            .with_mode(mpix_dmp::HaloMode::Full);
        let report = op.autotune_topology(4, &base, 2, |_| ());
        // 2-D grid: balanced [2,2] plus slab [4,1].
        assert!(report.trials.len() >= 2);
        let topos: Vec<&Vec<usize>> = report.trials.iter().map(|(t, _)| t).collect();
        assert!(topos.contains(&&vec![2, 2]));
        assert!(topos.contains(&&vec![4, 1]));
    }

    #[test]
    fn backend_tuner_sweeps_every_available_backend() {
        let op = op();
        let base = ApplyOptions::default().with_dt(0.001);
        let report = op.autotune_backend(&base, 2, |_| ());
        let avail = available_backends();
        assert_eq!(report.trials.len(), avail.len());
        assert!(avail.contains(&report.best));
        assert!(report.trials.iter().all(|(_, t)| *t > 0.0));
    }

    #[test]
    fn best_trial_is_nan_safe() {
        // A NaN trial time must lose to every finite time, not panic the
        // sweep (the old partial_cmp(..).unwrap() selection did).
        let trials = vec![("nan", f64::NAN), ("fast", 0.1), ("slow", 0.9)];
        assert_eq!(super::best_trial(&trials), "fast");
        // Even an all-NaN sweep picks *something* deterministically.
        let all_nan = vec![("a", f64::NAN), ("b", f64::NAN)];
        assert_eq!(super::best_trial(&all_nan), "a");
    }

    #[test]
    #[should_panic]
    fn block_tuner_requires_candidates() {
        let op = op();
        let base = ApplyOptions::default();
        op.autotune_block(&base, 1, &[], |_| ());
    }
}
