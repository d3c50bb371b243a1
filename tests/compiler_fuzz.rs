//! Differential fuzzing of the full compiler pipeline: random stencil
//! operators are compiled (lowering → clustering → CSE → halo detection →
//! IET → bytecode) and executed serially and distributed, then checked
//! against a naive direct evaluator that never touches the compiler.
//!
//! Any disagreement is a compiler bug: wrong index arithmetic, wrong CSE,
//! wrong halo width, wrong unpacking — this test catches them all.

// Linear indices are decoded into multi-dim points in place, so the
// index-based loops are the natural shape here.
#![allow(clippy::needless_range_loop)]
use mpix::prelude::*;
use proptest::prelude::*;

/// A randomly generated stencil term: `coeff * field[t][+off]`.
#[derive(Clone, Debug)]
struct Term {
    field: usize,
    offsets: Vec<i32>,
    coeff: f64,
}

/// A randomly generated operator: per written field, a list of terms
/// (all reads at time t).
#[derive(Clone, Debug)]
struct StencilSpec {
    shape: Vec<usize>,
    nfields: usize,
    space_order: u32,
    eqs: Vec<Vec<Term>>,
}

fn term_strategy(nfields: usize, nd: usize, radius: i32) -> impl Strategy<Value = Term> {
    (
        0..nfields,
        proptest::collection::vec(-radius..=radius, nd),
        -2.0f64..2.0,
    )
        .prop_map(|(field, offsets, coeff)| Term {
            field,
            offsets,
            // Quantize coefficients so f32 arithmetic orders can't create
            // borderline comparisons.
            coeff: (coeff * 4.0).round() / 4.0,
        })
}

fn spec_strategy() -> impl Strategy<Value = StencilSpec> {
    (2usize..=3, 1usize..=3, prop_oneof![Just(2u32), Just(4u32)]).prop_flat_map(
        |(nd, nfields, so)| {
            let radius = (so / 2) as i32;
            let shape = proptest::collection::vec(5usize..9, nd);
            let eq = proptest::collection::vec(term_strategy(nfields, nd, radius), 1..5);
            let eqs = proptest::collection::vec(eq, nfields);
            (shape, eqs).prop_map(move |(shape, eqs)| StencilSpec {
                shape,
                nfields,
                space_order: so,
                eqs,
            })
        },
    )
}

/// Build the operator from a spec.
fn build_operator(spec: &StencilSpec) -> Operator {
    let mut ctx = Context::new();
    let extent: Vec<f64> = spec.shape.iter().map(|&s| (s - 1) as f64).collect();
    let grid = Grid::new(&spec.shape, &extent);
    let fields: Vec<_> = (0..spec.nfields)
        .map(|i| ctx.add_time_function(&format!("f{i}"), &grid, spec.space_order, 1))
        .collect();
    let mut eqs = Vec::new();
    for (wi, terms) in spec.eqs.iter().enumerate() {
        let mut rhs = Expr::Const(0.0);
        for t in terms {
            rhs = rhs + Expr::Const(t.coeff) * fields[t.field].at(0, &t.offsets);
        }
        eqs.push(Eq::new(fields[wi].forward(), rhs));
    }
    Operator::build(ctx, grid, eqs).expect("random operator builds")
}

/// The naive reference: dense global arrays, direct evaluation, zero
/// out-of-bounds semantics (matching the executor's zero-initialized,
/// never-written physical boundary halo).
fn naive_run(spec: &StencilSpec, init: &[Vec<f32>], nt: usize) -> Vec<Vec<f32>> {
    let shape = &spec.shape;
    let total: usize = shape.iter().product();
    let nd = shape.len();
    let mut cur = init.to_vec();
    let idx_of = |idx: &[i64]| -> Option<usize> {
        let mut lin = 0usize;
        for d in 0..nd {
            if idx[d] < 0 || idx[d] >= shape[d] as i64 {
                return None;
            }
            lin = lin * shape[d] + idx[d] as usize;
        }
        Some(lin)
    };
    for _ in 0..nt {
        let mut next = vec![vec![0.0f32; total]; spec.nfields];
        // Enumerate all points.
        let mut point = vec![0i64; nd];
        for lin in 0..total {
            // Decode lin -> point.
            let mut rem = lin;
            for d in (0..nd).rev() {
                point[d] = (rem % shape[d]) as i64;
                rem /= shape[d];
            }
            for (wi, terms) in spec.eqs.iter().enumerate() {
                let mut acc = 0.0f32;
                for t in terms {
                    let sh: Vec<i64> = (0..nd).map(|d| point[d] + t.offsets[d] as i64).collect();
                    let v = idx_of(&sh).map(|k| cur[t.field][k]).unwrap_or(0.0);
                    acc += t.coeff as f32 * v;
                }
                next[wi][lin] = acc;
            }
        }
        cur = next;
    }
    cur
}

fn check_spec(spec: &StencilSpec, nt: usize, nranks: usize) -> Result<(), TestCaseError> {
    let op = build_operator(spec);
    let total: usize = spec.shape.iter().product();
    // Deterministic pseudo-random initial data.
    let init: Vec<Vec<f32>> = (0..spec.nfields)
        .map(|f| {
            (0..total)
                .map(|k| (((k * 2654435761 + f * 97) % 17) as f32 - 8.0) / 8.0)
                .collect()
        })
        .collect();
    let expected = naive_run(spec, &init, nt);

    let shape = spec.shape.clone();
    let nfields = spec.nfields;
    let init2 = init.clone();
    let opts = ApplyOptions::default().with_nt(nt as i64).with_dt(1.0);
    let seed = move |ws: &mut Workspace| {
        let nd = shape.len();
        for f in 0..nfields {
            let mut point = vec![0usize; nd];
            for lin in 0..init2[f].len() {
                let mut rem = lin;
                for d in (0..nd).rev() {
                    point[d] = rem % shape[d];
                    rem /= shape[d];
                }
                ws.field_data_mut(&format!("f{f}"), 0)
                    .set_global(&point, init2[f][lin]);
            }
        }
    };
    let got = op
        .run(&opts.clone().with_ranks(nranks), &seed, |ws| {
            (0..nfields)
                .map(|f| ws.gather(&format!("f{f}")))
                .collect::<Vec<_>>()
        })
        .results;
    for f in 0..nfields {
        for (k, (a, b)) in got[0][f].iter().zip(&expected[f]).enumerate() {
            let tol = 1e-4f32 * b.abs().max(1.0);
            prop_assert!(
                (a - b).abs() <= tol,
                "field {f} idx {k}: compiled {a} vs naive {b} (nranks={nranks}, spec {spec:?})"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn compiled_operator_matches_naive_serial(spec in spec_strategy()) {
        check_spec(&spec, 2, 1)?;
    }

    #[test]
    fn compiled_operator_matches_naive_4_ranks(spec in spec_strategy()) {
        check_spec(&spec, 2, 4)?;
    }
}

#[test]
fn regression_wide_offsets_cross_ranks() {
    // Hand-picked case: maximal offsets in every direction, three fields
    // reading each other, three time steps, six ranks.
    let spec = StencilSpec {
        shape: vec![7, 8, 6],
        nfields: 3,
        space_order: 4,
        eqs: vec![
            vec![
                Term {
                    field: 1,
                    offsets: vec![2, -2, 1],
                    coeff: 0.5,
                },
                Term {
                    field: 2,
                    offsets: vec![-2, 2, -2],
                    coeff: -0.75,
                },
            ],
            vec![
                Term {
                    field: 0,
                    offsets: vec![0, 0, 2],
                    coeff: 1.25,
                },
                Term {
                    field: 1,
                    offsets: vec![-1, 0, 0],
                    coeff: -0.25,
                },
            ],
            vec![
                Term {
                    field: 2,
                    offsets: vec![1, 1, 1],
                    coeff: 0.5,
                },
                Term {
                    field: 0,
                    offsets: vec![-2, -2, -2],
                    coeff: 0.25,
                },
            ],
        ],
    };
    check_spec(&spec, 3, 6).unwrap();
}

#[test]
fn elementary_functions_execute_end_to_end() {
    // u[t+1] = exp(-(u[t])²) + 0.5·sin(u[t,x+1]) — nonlinear pointwise
    // functions through the full pipeline, serial vs 4 ranks vs direct
    // evaluation.
    let mut ctx = Context::new();
    let grid = Grid::new(&[10, 9], &[1.0, 1.0]);
    let u = ctx.add_time_function("u", &grid, 2, 1);
    let rhs = (Expr::Const(-1.0) * u.center() * u.center()).exp() + 0.5 * u.at(0, &[1, 0]).sin();
    let eq = Eq::new(u.forward(), rhs);
    let op = Operator::build(ctx, grid, vec![eq]).unwrap();

    // The generated C uses the libm float functions.
    let c = op.c_code_for(&ApplyOptions::default().with_mode(HaloMode::Basic));
    assert!(c.contains("expf("), "{c}");
    assert!(c.contains("sinf("), "{c}");

    let init = |ws: &mut Workspace| {
        for i in 0..10 {
            for j in 0..9 {
                ws.field_data_mut("u", 0)
                    .set_global(&[i, j], ((i * 9 + j) % 5) as f32 * 0.3 - 0.6);
            }
        }
    };
    let opts = ApplyOptions::default().with_nt(3).with_dt(1.0);
    let serial = op.run(&opts, init, |ws| ws.gather("u")).results.remove(0);
    let dist = op
        .run(&opts.clone().with_ranks(4), init, |ws| ws.gather("u"))
        .results;
    for (a, b) in dist[0].iter().zip(&serial) {
        assert_eq!(a, b, "distributed != serial with elementary functions");
    }

    // Direct check of one interior point after one step.
    let one = op
        .run(
            &ApplyOptions::default().with_nt(1).with_dt(1.0),
            init,
            |ws| ws.gather("u"),
        )
        .results
        .remove(0);
    let u0 = |i: usize, j: usize| ((i * 9 + j) % 5) as f32 * 0.3 - 0.6;
    let want = (-(u0(4, 4) * u0(4, 4))).exp() + 0.5 * u0(5, 4).sin();
    let got = one[4 * 9 + 4];
    assert!((got - want).abs() < 1e-6, "{got} vs {want}");
}

// ===========================================================================
// Mutation testing of the self-verification passes (`mpix-analysis`):
// seed ≥30 deterministic mutants into compiler artifacts — deleted or
// shrunk halo exchanges, corrupted bytecode ops, broken comm schedules,
// racy slab tables — and assert every single one is caught by the pass
// that owns that obligation, while the unmutated artifacts verify clean.
// ===========================================================================

mod verification_oracle {
    use mpix::analysis::comm_schedule::{
        check_tag_windows, collect_schedules, match_schedule, RankPlan, ScheduleCtx,
    };
    use mpix::analysis::{
        bytecode_check, halo_coverage::check_halo_coverage, thread_safety, AnalysisConfig,
    };
    use mpix::codegen::bytecode::CoeffSrc;
    use mpix::codegen::{compile_cluster, fold_constants, fuse_cluster, CompiledCluster, Op};
    use mpix::ir::cluster::{clusterize, Cluster};
    use mpix::ir::halo::{detect_halo_exchanges, HaloPlan, HaloXchg};
    use mpix::ir::lowering::lower_equations;
    use mpix::solvers::{KernelKind, ModelSpec, Propagator};
    use mpix::symbolic::{Context, Grid};
    use mpix::trace::{Diagnostic, Severity};
    use mpix::HaloMode;

    /// The acoustic artifacts every mutant corrupts a copy of.
    fn artifacts() -> (Context, Vec<Cluster>, HaloPlan) {
        let mut ctx = Context::new();
        let g = Grid::new(&[32, 32], &[1.0, 1.0]);
        let u = ctx.add_time_function("u", &g, 4, 2);
        let m = ctx.add_function("m", &g, 4);
        let pde = m.center() * u.dt2() - u.laplace();
        let st = mpix::symbolic::solve(&pde, &u.forward(), &ctx).unwrap();
        let cl = clusterize(&lower_equations(&[st], &ctx).unwrap());
        let plan = detect_halo_exchanges(&cl, &ctx);
        (ctx, cl, plan)
    }

    fn fused() -> (Context, CompiledCluster) {
        let (ctx, cl, _) = artifacts();
        (ctx, fuse_cluster(compile_cluster(&cl[0])))
    }

    fn folded_and_fused() -> (CompiledCluster, CompiledCluster) {
        let (_, cl, _) = artifacts();
        let unfused = compile_cluster(&cl[0]);
        let mut folded = unfused.clone();
        fold_constants(&mut folded);
        (folded, fuse_cluster(unfused))
    }

    fn first_load(cc: &mut CompiledCluster) -> (&mut u32, &mut u32) {
        cc.ops
            .iter_mut()
            .find_map(|op| match op {
                Op::Load { stream, off }
                | Op::LoadMul { stream, off, .. }
                | Op::LoadMulAdd { stream, off, .. } => Some((stream, off)),
                _ => None,
            })
            .expect("cluster has at least one load")
    }

    #[test]
    fn analyzer_catches_every_seeded_mutant() {
        // (mutant name, pass expected to catch it, diagnostics produced)
        let mut cases: Vec<(&str, &str, Vec<Diagnostic>)> = Vec::new();

        // --- halo-coverage mutants (corrupt the compiler HaloPlan) ----
        {
            let (ctx, cl, mut plan) = artifacts();
            plan.per_cluster[0].clear();
            cases.push((
                "delete-cluster-exchanges",
                "halo-coverage",
                check_halo_coverage(&ctx, &cl, &plan),
            ));
        }
        for (name, radius) in [
            ("shrink-radius-dim0", vec![1usize, 2]),
            ("shrink-radius-dim1", vec![2, 1]),
            ("zero-radius", vec![0, 0]),
            ("radius-exceeds-halo", vec![5, 5]),
            ("radius-rank-mismatch", vec![2]),
            ("widen-radius", vec![3, 3]),
        ] {
            let (ctx, cl, mut plan) = artifacts();
            plan.per_cluster[0][0].radius = radius;
            cases.push((name, "halo-coverage", check_halo_coverage(&ctx, &cl, &plan)));
        }
        {
            let (ctx, cl, mut plan) = artifacts();
            let f = plan.per_cluster[0][0].field;
            plan.per_cluster[0].push(HaloXchg {
                field: f,
                time_offset: -1,
                radius: vec![1, 1],
            });
            cases.push((
                "redundant-exchange",
                "halo-coverage",
                check_halo_coverage(&ctx, &cl, &plan),
            ));
        }
        {
            let (ctx, cl, mut plan) = artifacts();
            let x = plan.per_cluster[0][0].clone();
            plan.hoisted.push(x);
            cases.push((
                "hoist-rewritten-buffer",
                "halo-coverage",
                check_halo_coverage(&ctx, &cl, &plan),
            ));
        }
        {
            let (ctx, cl, mut plan) = artifacts();
            plan.per_cluster.push(Vec::new());
            cases.push((
                "plan-length-mismatch",
                "halo-coverage",
                check_halo_coverage(&ctx, &cl, &plan),
            ));
        }

        // --- bytecode mutants (corrupt the compiled stack program) ----
        let structural = |name: &'static str, mutate: &dyn Fn(&mut CompiledCluster)| {
            let (ctx, mut cc) = fused();
            mutate(&mut cc);
            (
                name,
                "bytecode",
                bytecode_check::check_compiled(&ctx, 0, &cc, 8),
            )
        };
        cases.push(structural("load-stream-oob", &|cc| {
            *first_load(cc).0 = 99;
        }));
        cases.push(structural("load-offset-oob", &|cc| {
            *first_load(cc).1 = cc.offsets.len() as u32 + 7;
        }));
        cases.push(structural("cross-stream-offset", &|cc| {
            let (s, off) = {
                let (s, off) = first_load(cc);
                (*s, *off)
            };
            cc.offsets[off as usize].0 = (s + 1) % cc.streams.len() as u32;
        }));
        cases.push(structural("const-slot-oob", &|cc| {
            let n = cc.consts.len() as u32;
            for op in &mut cc.ops {
                if let Op::Const(k) = op {
                    *k = n + 3;
                    break;
                }
            }
            // No Const op? Insert an unbalanced OOB one — still bytecode.
            if !cc.ops.iter().any(|o| matches!(o, Op::Const(k) if *k > n)) {
                cc.ops.insert(0, Op::Const(n + 3));
            }
        }));
        cases.push(structural("scalar-slot-oob", &|cc| {
            let n = cc.scalars.len() as u32;
            cc.ops.insert(0, Op::Scalar(n + 2)); // also unbalances the stack
        }));
        cases.push(structural("temp-read-before-assign", &|cc| {
            let t = cc.num_temps as u32;
            cc.num_temps += 1;
            cc.ops.insert(0, Op::SetTemp(t));
            cc.ops.insert(0, Op::Temp(t));
        }));
        cases.push(structural("delete-trailing-op", &|cc| {
            cc.ops.pop();
        }));
        cases.push(structural("insert-add-underflow", &|cc| {
            cc.ops.insert(0, Op::Add);
        }));
        cases.push(structural("understate-max-stack", &|cc| {
            cc.max_stack = 0;
        }));
        cases.push(structural("store-unmarked-written", &|cc| {
            let s = cc.written.iter().position(|&w| w).unwrap();
            cc.written[s] = false;
        }));
        cases.push(structural("written-never-stored", &|cc| {
            let s = cc.written.iter().position(|&w| !w).unwrap();
            cc.written[s] = true;
        }));

        // Bounds mutants: stencil offsets escaping the allocated halo.
        for (name, mutate) in [
            ("delta-beyond-halo-positive", 7i32),
            ("delta-beyond-halo-negative", -7),
        ] {
            let (ctx, mut cc) = fused();
            cc.offsets[0].1[0] = mutate;
            cases.push((
                name,
                "bytecode",
                bytecode_check::check_bounds(&ctx, 0, &cc, &[12, 12], 2),
            ));
        }
        {
            let (ctx, mut cc) = fused();
            let last = cc.offsets[0].1.len() - 1;
            cc.offsets[0].1[last] = 9; // inner (vectorized) dimension
            cases.push((
                "inner-delta-beyond-halo",
                "bytecode",
                bytecode_check::check_bounds(&ctx, 0, &cc, &[12, 12], 2),
            ));
        }

        // Fusion-invariance mutants.
        {
            let (folded, mut fused) = folded_and_fused();
            fused.ops.push(Op::Const(0));
            fused.ops.push(Op::Pow(2)); // extra flop, unbalanced exit
            cases.push((
                "fusion-extra-flop",
                "bytecode",
                bytecode_check::check_fusion_invariance(0, &folded, &fused, true),
            ));
        }
        {
            let (folded, mut fused) = folded_and_fused();
            let swapped = fused.ops.iter_mut().any(|op| {
                if matches!(op, Op::Mul) {
                    *op = Op::Add;
                    true
                } else {
                    false
                }
            });
            assert!(swapped, "acoustic kernel has a Mul to corrupt");
            cases.push((
                "fusion-mul-to-add",
                "bytecode",
                bytecode_check::check_fusion_invariance(0, &folded, &fused, true),
            ));
        }
        {
            let (folded, mut fused) = folded_and_fused();
            let mut rotated = false;
            for op in &mut fused.ops {
                if let Op::LoadMul {
                    coeff: CoeffSrc::Const(k),
                    ..
                }
                | Op::LoadMulAdd {
                    coeff: CoeffSrc::Const(k),
                    ..
                } = op
                {
                    *k = (*k + 1) % folded.consts.len() as u32;
                    rotated = true;
                    break;
                }
            }
            assert!(rotated, "acoustic kernel fuses a const coefficient");
            cases.push((
                "fusion-wrong-coefficient",
                "bytecode",
                bytecode_check::check_fusion_invariance(0, &folded, &fused, true),
            ));
        }
        {
            let (folded, mut fused) = folded_and_fused();
            fused.num_temps += 1;
            cases.push((
                "fusion-metadata-drift",
                "bytecode",
                bytecode_check::check_fusion_invariance(0, &folded, &fused, true),
            ));
        }

        // --- thread-safety mutants ------------------------------------
        for (name, deltas) in [
            ("written-load-outer-dim", vec![1i32, 0]),
            ("written-load-inner-dim", vec![0, 1]),
        ] {
            let (ctx, mut cc) = fused();
            let ws = cc.written.iter().position(|&w| w).unwrap() as u32;
            let off = {
                let (s, off) = first_load(&mut cc);
                *s = ws;
                *off
            };
            cc.offsets[off as usize] = (ws, deltas);
            cases.push((
                name,
                "thread-safety",
                thread_safety::check_written_offsets(&ctx, 0, &cc),
            ));
        }
        {
            let r = 0..16;
            let mut slabs = thread_safety::compute_slabs(&r, 4, 2, 20).unwrap();
            slabs[1].0 = slabs[1].0.start - 1..slabs[1].0.end; // overlap
            slabs[1].1 = (slabs[1].0.start + 2) * 20..(slabs[1].0.end + 2) * 20;
            cases.push((
                "slab-overlap",
                "thread-safety",
                thread_safety::check_slabs(&slabs, &r, 2, 20, "mutant"),
            ));
        }
        {
            let r = 0..16;
            let mut slabs = thread_safety::compute_slabs(&r, 4, 2, 20).unwrap();
            slabs[2].0 = slabs[2].0.end..slabs[2].0.end; // gap
            slabs[2].1 = (slabs[2].0.start + 2) * 20..(slabs[2].0.end + 2) * 20;
            cases.push((
                "slab-gap",
                "thread-safety",
                thread_safety::check_slabs(&slabs, &r, 2, 20, "mutant"),
            ));
        }
        {
            let r = 0..16;
            let mut slabs = thread_safety::compute_slabs(&r, 4, 2, 20).unwrap();
            slabs[0].1 = slabs[0].1.start..slabs[0].1.end + 20; // stray linear slab
            cases.push((
                "slab-linear-mismatch",
                "thread-safety",
                thread_safety::check_slabs(&slabs, &r, 2, 20, "mutant"),
            ));
        }

        // --- comm-schedule mutants (corrupt collected real schedules) -
        let sctx = ScheduleCtx {
            global: vec![16, 16],
            dims: vec![2, 2],
            halo: 2,
            radius: 2,
        };
        let diag = collect_schedules(&sctx.global, &sctx.dims, 2, HaloMode::Diagonal, 2);
        let basic = collect_schedules(&sctx.global, &sctx.dims, 2, HaloMode::Basic, 2);
        assert!(match_schedule(&diag, &sctx, "clean").is_empty());
        assert!(match_schedule(&basic, &sctx, "clean").is_empty());
        let comm = |name: &'static str, base: &[RankPlan], mutate: &dyn Fn(&mut Vec<RankPlan>)| {
            let mut plans = base.to_vec();
            mutate(&mut plans);
            (name, "comm-schedule", match_schedule(&plans, &sctx, name))
        };
        cases.push(comm("drop-message", &diag, &|p| {
            p[0].steps[0].pop();
        }));
        cases.push(comm("corrupt-recv-tag", &diag, &|p| {
            p[1].steps[0][0].recv_tag += 1000;
        }));
        cases.push(comm("corrupt-send-tag", &diag, &|p| {
            p[2].steps[0][0].send_tag += 1000;
        }));
        cases.push(comm("wrong-peer", &diag, &|p| {
            let r = &mut p[0].steps[0][0];
            r.peer = (r.peer + 1) % 4;
        }));
        cases.push(comm("shrink-recv-box", &diag, &|p| {
            let b = &mut p[0].steps[0][0].recv_box[1];
            *b = b.start..b.end - 1;
        }));
        cases.push(comm("shrink-send-box", &diag, &|p| {
            let b = &mut p[3].steps[0][0].send_box[0];
            *b = b.start..b.end - 1;
        }));
        cases.push(comm("recv-into-owned", &diag, &|p| {
            p[0].steps[0][0].recv_box = vec![4..6, 4..6];
        }));
        cases.push(comm("duplicate-message", &diag, &|p| {
            let row = p[0].steps[0][0].clone();
            p[0].steps[0].push(row);
        }));
        cases.push(comm("drop-basic-step", &basic, &|p| {
            p[0].steps.pop();
        }));
        cases.push(comm("basic-corner-skew", &basic, &|p| {
            // Narrow the second-step send so the corner columns it is
            // supposed to forward (received in step one) are dropped.
            let b = &mut p[0].steps[1][0].send_box[0];
            *b = b.start + 2..b.end;
        }));
        {
            // Two buffers of one field, 8 time offsets apart: the tag
            // formula folds them onto the same window.
            let mut ctx = Context::new();
            let g = Grid::new(&[16, 16], &[1.0, 1.0]);
            let u = ctx.add_time_function("u", &g, 4, 2);
            let keys = vec![(u.id(), 0i32, 2usize), (u.id(), 8, 2)];
            cases.push((
                "tag-window-collision",
                "comm-schedule",
                check_tag_windows(&ctx, &keys, 2, 1),
            ));
        }

        // --- the oracle: every mutant caught, by the right pass -------
        assert!(cases.len() >= 30, "corpus has {} mutants", cases.len());
        for (name, pass, diags) in &cases {
            assert!(
                !diags.is_empty(),
                "mutant {name:?} escaped every verification pass"
            );
            assert!(
                diags.iter().any(|d| d.pass == *pass),
                "mutant {name:?} was not caught by the {pass} pass: {diags:?}"
            );
        }
        // Spot-check severities: correctness mutants are Errors, waste
        // mutants are Warnings.
        let sev = |n: &str| {
            cases
                .iter()
                .find(|(name, _, _)| *name == n)
                .unwrap()
                .2
                .iter()
                .map(|d| d.severity)
                .max()
                .unwrap()
        };
        assert_eq!(sev("delete-cluster-exchanges"), Severity::Error);
        assert_eq!(sev("drop-message"), Severity::Error);
        assert_eq!(sev("widen-radius"), Severity::Warning);
        assert_eq!(sev("written-load-inner-dim"), Severity::Warning);
    }

    /// Lint mutants: each seeded defect must be caught by exactly its
    /// owning `MPX0xx` code — no escapes, no cross-talk between lints.
    #[test]
    fn lint_catches_seeded_mutants() {
        use mpix::analysis::lint::absint;
        use mpix::ir::iexpr::IExpr;
        use std::collections::BTreeSet;

        let build = || {
            let mut ctx = Context::new();
            let g = Grid::new(&[32, 32], &[1.0, 1.0]);
            let u = ctx.add_time_function("u", &g, 4, 2);
            let m = ctx.add_function("m", &g, 4);
            let pde = m.center() * u.dt2() - u.laplace();
            let st = mpix::symbolic::solve(&pde, &u.forward(), &ctx).unwrap();
            let cl = clusterize(&lower_equations(&[st], &ctx).unwrap());
            (ctx, cl, u.id(), m.id())
        };
        let codes = |fs: &[mpix::analysis::lint::LintFinding]| -> BTreeSet<&'static str> {
            fs.iter().map(|f| f.code).collect()
        };

        // Unmutated artifacts are lint-clean under the default contract.
        let (ctx, cl, u_id, _) = build();
        assert!(absint::lint_clusters(&ctx, &cl, None).is_empty());
        assert!(absint::lint_bytecode(&cl).is_empty());

        // Mutant: the declared initialization set drops `m` — every read
        // of the velocity model becomes a read of a buffer nothing wrote.
        let init_without_m: BTreeSet<_> = [u_id].into_iter().collect();
        let found = absint::lint_clusters(&ctx, &cl, Some(&init_without_m));
        assert_eq!(
            codes(&found),
            BTreeSet::from(["MPX001"]),
            "dropped-field-init must be caught by MPX001 alone: {found:?}"
        );

        // Mutant: multiply the update by 1/0 — a statically-zero divisor.
        let (ctx, mut cl, _, _) = build();
        let si = cl[0]
            .stmts
            .iter()
            .position(|s| matches!(s, mpix::ir::cluster::Stmt::Store { .. }))
            .unwrap();
        let old = cl[0].stmts[si].value().clone();
        *cl[0].stmts[si].value_mut() =
            IExpr::Mul(vec![old, IExpr::Pow(Box::new(IExpr::Const(0.0)), -1)]);
        let found = absint::lint_clusters(&ctx, &cl, None);
        assert_eq!(
            codes(&found),
            BTreeSet::from(["MPX002"]),
            "zero-divisor must be caught by MPX002 alone: {found:?}"
        );

        // Mutant: duplicate the store — the first write of u[t+1] is
        // overwritten with no intervening read, a dead store.
        let (ctx, mut cl, _, _) = build();
        let dup = cl[0].stmts[si].clone();
        cl[0].stmts.push(dup);
        let found = absint::lint_clusters(&ctx, &cl, None);
        assert_eq!(
            codes(&found),
            BTreeSet::from(["MPX004"]),
            "duplicate-store must be caught by MPX004 alone: {found:?}"
        );
    }

    /// Floating-point lint mutants: seeded numerical defects in a real
    /// compiled operator must be caught by exactly their owning code
    /// (MPX015 cancellation, MPX016 accumulation amplification) — same
    /// no-escape/no-cross-talk contract as `lint_catches_seeded_mutants`.
    #[test]
    fn fp_lints_catch_seeded_mutants() {
        use mpix::analysis::fp::lint_clusters_fp;
        use mpix::ir::iexpr::IExpr;
        use std::collections::BTreeSet;

        let build = || {
            let mut ctx = Context::new();
            let g = Grid::new(&[32, 32], &[1.0, 1.0]);
            let u = ctx.add_time_function("u", &g, 4, 2);
            let m = ctx.add_function("m", &g, 4);
            let pde = m.center() * u.dt2() - u.laplace();
            let st = mpix::symbolic::solve(&pde, &u.forward(), &ctx).unwrap();
            let cl = clusterize(&lower_equations(&[st], &ctx).unwrap());
            (ctx, cl)
        };
        let codes = |fs: &[mpix::analysis::lint::LintFinding]| -> BTreeSet<&'static str> {
            fs.iter().map(|f| f.code).collect()
        };

        // The unmutated operator is clean under the structural fp pass.
        let (ctx, cl) = build();
        assert!(lint_clusters_fp(&ctx, &cl).is_empty());
        let si = cl[0]
            .stmts
            .iter()
            .position(|s| matches!(s, mpix::ir::cluster::Stmt::Store { .. }))
            .unwrap();

        // Mutant: scale the update by (1 − 0.99999) written as an Add —
        // a constant pair that provably cancels by ~1e5 ≫ the 2^10
        // condition-number threshold at every grid point.
        let (ctx, mut cl) = build();
        let old = cl[0].stmts[si].value().clone();
        *cl[0].stmts[si].value_mut() = IExpr::Mul(vec![
            IExpr::Add(vec![IExpr::Const(1.0), IExpr::Const(-0.99999)]),
            old,
        ]);
        let found = lint_clusters_fp(&ctx, &cl);
        assert_eq!(
            codes(&found),
            BTreeSet::from(["MPX015"]),
            "seeded cancellation must be caught by MPX015 alone: {found:?}"
        );

        // Mutant: replace the update with a 300-tap flat accumulation of
        // coeff·u[t] loads — it fuses into one LoadMulAdd run whose
        // rounding-event count is far past the affine envelope for a
        // radius-1 2-D cluster (8·2·3 + 16 = 64 events).
        let (ctx, mut cl) = build();
        let mpix::ir::cluster::Stmt::Store { target, .. } = &cl[0].stmts[si] else {
            unreachable!()
        };
        let uf = target.field;
        let terms: Vec<IExpr> = (0..100)
            .flat_map(|i| {
                [-1i32, 0, 1].map(|d| {
                    IExpr::Mul(vec![
                        IExpr::Const(1.0 + (i % 3) as f64 * 1e-3),
                        IExpr::Load(mpix::ir::iexpr::IdxAccess {
                            field: uf,
                            time_offset: 0,
                            deltas: vec![d, 0],
                        }),
                    ])
                })
            })
            .collect();
        *cl[0].stmts[si].value_mut() = IExpr::Add(terms);
        let found = lint_clusters_fp(&ctx, &cl);
        assert!(
            codes(&found).contains("MPX016"),
            "seeded accumulation chain must be caught by MPX016: {found:?}"
        );
    }

    #[test]
    fn unmutated_artifacts_verify_clean() {
        let (ctx, cl, plan) = artifacts();
        assert!(check_halo_coverage(&ctx, &cl, &plan).is_empty());
        let cc = fuse_cluster(compile_cluster(&cl[0]));
        assert!(bytecode_check::check_compiled(&ctx, 0, &cc, 8).is_empty());
        assert!(bytecode_check::check_bounds(&ctx, 0, &cc, &[12, 12], 2).is_empty());
        assert!(thread_safety::check_written_offsets(&ctx, 0, &cc).is_empty());
    }

    #[test]
    fn shipped_operators_verify_clean() {
        // The analyzer must not cry wolf: every shipped solver at two
        // representative space orders is clean under the default sweep.
        for kind in KernelKind::all() {
            for so in [4u32, 8] {
                let shape: &[usize] = match kind {
                    KernelKind::Acoustic => &[24, 24],
                    _ => &[12, 12, 12],
                };
                let prop = Propagator::build(kind, ModelSpec::new(shape).with_nbl(2), so);
                let report = prop.op.verify(&AnalysisConfig::default());
                assert!(
                    report.is_clean(),
                    "{} so={so} is not clean:\n{report}",
                    kind.name()
                );
            }
        }
    }
}
