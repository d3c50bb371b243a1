//! End-to-end operator tests: compile-and-run correctness, serial vs
//! distributed equivalence for every MPI mode, Listing 2 reproduction,
//! and sparse source/receiver integration.

use mpix_core::prelude::*;
use mpix_symbolic as sym;

/// Listing 1: the 2-D heat diffusion operator.
fn diffusion_op(nx: usize, ny: usize, so: u32) -> Operator {
    let mut ctx = Context::new();
    let grid = Grid::new(&[nx, ny], &[2.0, 2.0]);
    let u = ctx.add_time_function("u", &grid, so, 1);
    let eq = Eq::new(u.dt(), u.laplace());
    let stencil = eq.solve_for(&u.forward(), &ctx).unwrap();
    Operator::build(ctx, grid, vec![stencil]).unwrap()
}

#[test]
fn listing2_distributed_views_match_paper() {
    // 4x4 grid, 4 ranks, u.data[1:-1, 1:-1] = 1 (paper Listings 1-2).
    let op = diffusion_op(4, 4, 2);
    let views = op.run(
        &ApplyOptions::default()
            .with_nt(0)
            .with_ranks(4)
            .with_topology(&[2, 2]),
        |ws| {
            ws.field_data_mut("u", 0)
                .fill_global_slice(&[1..3, 1..3], 1.0);
        },
        |ws| ws.field_data("u", 0).local_view_string(),
    );
    let views = views.results;
    assert_eq!(views[0], "[[0.00 0.00]\n [0.00 1.00]]");
    assert_eq!(views[1], "[[0.00 0.00]\n [1.00 0.00]]");
    assert_eq!(views[2], "[[0.00 1.00]\n [0.00 0.00]]");
    assert_eq!(views[3], "[[1.00 0.00]\n [0.00 0.00]]");
}

#[test]
fn one_step_diffusion_matches_hand_computation() {
    // u1 = u0 + dt * laplace(u0), 4x4 grid, dt chosen as in Listing 1.
    let (nx, ny) = (4, 4);
    let op = diffusion_op(nx, ny, 2);
    let dx: f64 = 2.0 / 3.0;
    let dt = 0.25 * dx * dx / 0.5;
    let got = op
        .run(
            &ApplyOptions::default().with_nt(1).with_dt(dt),
            |ws| {
                ws.field_data_mut("u", 0)
                    .fill_global_slice(&[1..3, 1..3], 1.0);
            },
            |ws| ws.gather("u"),
        )
        .results
        .remove(0);
    // Serial reference.
    let mut u0 = vec![0.0f64; nx * ny];
    for i in 1..3 {
        for j in 1..3 {
            u0[i * ny + j] = 1.0;
        }
    }
    let at = |u: &Vec<f64>, i: i64, j: i64| -> f64 {
        if i < 0 || j < 0 || i >= nx as i64 || j >= ny as i64 {
            0.0
        } else {
            u[(i as usize) * ny + j as usize]
        }
    };
    for i in 0..nx as i64 {
        for j in 0..ny as i64 {
            let lap = (at(&u0, i - 1, j) + at(&u0, i + 1, j) - 2.0 * at(&u0, i, j)) / (dx * dx)
                + (at(&u0, i, j - 1) + at(&u0, i, j + 1) - 2.0 * at(&u0, i, j)) / (dx * dx);
            let want = at(&u0, i, j) + dt * lap;
            let g = got[(i as usize) * ny + j as usize] as f64;
            assert!((g - want).abs() < 1e-5, "({i},{j}): got {g}, want {want}");
        }
    }
}

#[test]
fn distributed_equals_serial_for_every_mode() {
    let op = diffusion_op(12, 10, 4);
    let opts = ApplyOptions::default().with_nt(5).with_dt(0.05);
    let init = |ws: &mut Workspace| {
        // Deterministic non-trivial initial data, set via global indexing.
        for i in 0..12 {
            for j in 0..10 {
                let v = ((i * 31 + j * 17) % 7) as f32 * 0.125;
                ws.field_data_mut("u", 0).set_global(&[i, j], v);
            }
        }
    };
    let serial = op.run(&opts, init, |ws| ws.gather("u")).results.remove(0);
    for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
        for nranks in [2, 4, 6] {
            let opts = opts.clone().with_mode(mode).with_ranks(nranks);
            let out = op.run(&opts, init, |ws| ws.gather("u")).results;
            for (r, got) in out.iter().enumerate() {
                for (k, (a, b)) in got.iter().zip(&serial).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                        "{mode:?} ranks={nranks} rank{r} idx{k}: {a} vs {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn custom_topology_matches_default() {
    let op = diffusion_op(16, 8, 4);
    let opts = ApplyOptions::default().with_nt(3).with_dt(0.03);
    let init = |ws: &mut Workspace| {
        ws.field_data_mut("u", 0)
            .fill_global_slice(&[4..12, 2..6], 1.0);
    };
    let run_topo = |dims: &[usize]| {
        op.run(
            &opts.clone().with_ranks(4).with_topology(dims),
            init,
            |ws| ws.gather("u"),
        )
        .results
    };
    let a = run_topo(&[4, 1]);
    let b = run_topo(&[1, 4]);
    let c = run_topo(&[2, 2]);
    for ((x, y), z) in a[0].iter().zip(&b[0]).zip(&c[0]) {
        assert!((x - y).abs() < 1e-5 && (y - z).abs() < 1e-5);
    }
}

#[test]
fn threads_and_blocking_do_not_change_results() {
    let op = diffusion_op(20, 20, 4);
    let base = ApplyOptions::default().with_nt(4).with_dt(0.02);
    let init = |ws: &mut Workspace| {
        ws.field_data_mut("u", 0)
            .fill_global_slice(&[5..15, 5..15], 2.0);
    };
    let run_one = |o: &ApplyOptions| op.run(o, init, |ws| ws.gather("u")).results.remove(0);
    let reference = run_one(&base);
    let blocked = run_one(&base.clone().with_block(4));
    let threaded = run_one(&base.clone().with_threads(3));
    let both = run_one(&base.clone().with_block(4).with_threads(2));
    for (((a, b), c), d) in reference.iter().zip(&blocked).zip(&threaded).zip(&both) {
        assert_eq!(a, b, "blocking changed results");
        assert_eq!(a, c, "threading changed results");
        assert_eq!(a, d, "blocking+threading changed results");
    }
}

#[test]
fn second_order_wave_equation_runs_and_spreads() {
    // m * u.dt2 = laplace(u): energy must propagate outward from the
    // initial bump and the scheme stays finite under a stable dt.
    let mut ctx = Context::new();
    let grid = Grid::new(&[32, 32], &[1.0, 1.0]);
    let u = ctx.add_time_function("u", &grid, 4, 2);
    let m = ctx.add_function("m", &grid, 4);
    let pde = m.center() * u.dt2() - u.laplace();
    let stencil = sym::solve(&pde, &u.forward(), &ctx).unwrap();
    let op = Operator::build(ctx, grid, vec![stencil]).unwrap();
    let opts = ApplyOptions::default().with_nt(20).with_dt(0.01);
    let out = op.run(
        &opts.clone().with_ranks(4),
        |ws| {
            ws.field_data_mut("m", 0)
                .fill_global_slice(&[0..32, 0..32], 1.0);
            ws.field_data_mut("u", 0).set_global(&[16, 16], 1.0);
            ws.field_data_mut("u", -1).set_global(&[16, 16], 1.0);
        },
        |ws| ws.gather("u"),
    );
    let g = &out.results[0];
    assert!(g.iter().all(|v| v.is_finite()), "blow-up");
    // Wave must have reached at least radius 5.
    let far = g[(16 + 5) * 32 + 16].abs();
    assert!(far > 0.0, "no propagation: {far}");
    // Serial equivalence for the wave operator too.
    let serial = op
        .run(
            &opts,
            |ws| {
                ws.field_data_mut("m", 0)
                    .fill_global_slice(&[0..32, 0..32], 1.0);
                ws.field_data_mut("u", 0).set_global(&[16, 16], 1.0);
                ws.field_data_mut("u", -1).set_global(&[16, 16], 1.0);
            },
            |ws| ws.gather("u"),
        )
        .results
        .remove(0);
    for (a, b) in g.iter().zip(&serial) {
        assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0), "{a} vs {b}");
    }
}

#[test]
fn source_injection_and_receivers_work_distributed() {
    let mut ctx = Context::new();
    let grid = Grid::new(&[24, 24], &[1.0, 1.0]);
    let u = ctx.add_time_function("u", &grid, 4, 2);
    let m = ctx.add_function("m", &grid, 4);
    let pde = m.center() * u.dt2() - u.laplace();
    let stencil = sym::solve(&pde, &u.forward(), &ctx).unwrap();
    let op = Operator::build(ctx, grid, vec![stencil]).unwrap();
    let nt = 12;
    let opts = ApplyOptions::default().with_nt(nt).with_dt(0.01);
    let spacing = vec![op.grid().spacing(0), op.grid().spacing(1)];
    let sp = spacing.clone();
    let out = op.run(
        &opts.clone().with_ranks(4),
        move |ws| {
            ws.field_data_mut("m", 0)
                .fill_global_slice(&[0..24, 0..24], 1.0);
            // Off-grid source near the middle, shared rank boundary.
            let src = SparsePoints::new(vec![vec![0.5, 0.5]], sp.clone());
            ws.add_injection("u", src, vec![1.0; nt as usize], vec![1.0]);
            let rec = SparsePoints::new(vec![vec![0.52, 0.48]], sp.clone());
            ws.add_receivers("u", rec);
        },
        |ws| {
            let gathered = ws.gather("u");
            let samples = ws.take_samples(1);
            (gathered, samples)
        },
    );
    let out = out.results;
    let (g, _) = &out[0];
    let total: f32 = g.iter().map(|v| v.abs()).sum();
    assert!(total > 0.0, "injection had no effect");
    // Receiver rows: one per step; exactly one rank holds each value.
    let mut per_step_values = vec![0usize; nt as usize];
    for (_, samples) in &out {
        assert_eq!(samples.len(), nt as usize);
        for (t, row) in samples.iter().enumerate() {
            if !row[0].is_nan() {
                per_step_values[t] += 1;
            }
        }
    }
    assert!(
        per_step_values.iter().all(|&n| n == 1),
        "{per_step_values:?}"
    );
    // Later samples must be nonzero (wave arrives at the receiver).
    let mut any_nonzero = false;
    for (_, samples) in &out {
        if let Some(last) = samples.last() {
            if !last[0].is_nan() && last[0] != 0.0 {
                any_nonzero = true;
            }
        }
    }
    assert!(any_nonzero, "receiver never heard the source");
}

#[test]
fn compiler_artifacts_are_printable() {
    let op = diffusion_op(4, 4, 2);
    let sched = op.schedule_tree();
    assert!(sched.contains("<Halo(u[t+0])>"), "{sched}");
    let iet = op.iet_string();
    assert!(iet.contains("HaloSpot"), "{iet}");
    let c = op.c_code_for(&ApplyOptions::default().with_mode(HaloMode::Basic));
    // SDO 2 Laplacian: the store indexes through the reach-1 halo.
    assert!(c.contains("u[t1][x + 1][y + 1]"), "{c}");
    let counts = op.op_counts();
    assert!(counts.flops() > 0);
    assert!(counts.oi() > 0.0);
}

#[test]
fn empty_operator_rejected() {
    let ctx = Context::new();
    let grid = Grid::new(&[4, 4], &[1.0, 1.0]);
    assert!(Operator::build(ctx, grid, vec![]).is_err());
}
