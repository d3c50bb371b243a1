//! Integration: every field allocates exactly the halo its stencils
//! read. `Operator::build` sizes each field's halo by its largest read
//! radius (`Cluster::reads`, over every dimension and time offset), not
//! by its space order. The layout must cover every exchange the
//! `HaloPlan` makes, and the outputs must be bitwise those of the
//! space-order layout: a read never reaches past its radius, so every
//! point sees the same interior values or boundary zeros either way.

use mpix::available_backends;
use mpix::prelude::*;
use mpix::solvers::{KernelKind, ModelSpec, Propagator};

/// For every shipped solver × SDO {4, 8, 12, 16}: each field's halo in
/// `op.ctx()` is its largest read radius, and no exchange is wider.
#[test]
fn every_field_halo_is_its_largest_read_radius() {
    let spec = ModelSpec::new(&[8, 8, 8]).with_nbl(2);
    for kind in KernelKind::all() {
        for so in [4, 8, 12, 16] {
            let prop = Propagator::build(kind, spec.clone(), so);
            let op = &prop.op;
            let ctx = op.ctx();
            let mut reach = vec![0usize; ctx.fields().len()];
            for cl in op.clusters() {
                for (f, _, radius) in cl.reads() {
                    let r = radius.into_iter().max().unwrap_or(0);
                    reach[f.0 as usize] = reach[f.0 as usize].max(r);
                }
            }
            for f in ctx.fields() {
                assert_eq!(
                    f.halo() as usize,
                    reach[f.id.0 as usize],
                    "{} SDO {so}: field {} halo",
                    kind.name(),
                    f.name
                );
                assert!(f.halo() <= f.space_order, "{} SDO {so}", kind.name());
            }
            let plan = op.halo_plan();
            for x in plan.hoisted.iter().chain(plan.per_cluster.iter().flatten()) {
                let halo = ctx.field(x.field).halo() as usize;
                for (d, &r) in x.radius.iter().enumerate() {
                    assert!(
                        r <= halo,
                        "{} SDO {so}: {} exchanged at radius {r} in dim {d} past its halo {halo}",
                        kind.name(),
                        ctx.field(x.field).name
                    );
                }
            }
        }
    }
}

/// 64-bit FNV-1a over the bit patterns of `xs`, continuing from `h`.
fn fnv1a(mut h: u64, xs: &[f32]) -> u64 {
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a hash of the gathered main and source fields after a 6-step
/// shot on 8³ + 4-cell ABC, recorded with the space-order layout (halo =
/// SDO on every field) before halos were sized by stencil reach. Every
/// rank count {1, 2, 4}, backend and halo mode gave the same hash.
const GOLDEN: [(&str, u32, u64); 12] = [
    ("acoustic", 4, 0x85bf3294d28a92ed),
    ("acoustic", 8, 0x9b6dccdebd7bb3a5),
    ("acoustic", 12, 0x411764c71a6fede5),
    ("tti", 4, 0x913ff67d6a9997a9),
    ("tti", 8, 0xf6ac3ef9bb22c5c6),
    ("tti", 12, 0xe8d8ec299f4fc703),
    ("elastic", 4, 0xc988d152b6ff4914),
    ("elastic", 8, 0xa3cf48d8036441d2),
    ("elastic", 12, 0x8f927fc9f0acec5f),
    ("viscoelastic", 4, 0xb1a389a3f8ba7071),
    ("viscoelastic", 8, 0x1c1d9a0d8c379d2d),
    ("viscoelastic", 12, 0x3e6d449a6eafcc9a),
];

/// The reach-sized layout reproduces the space-order layout's outputs
/// bit for bit: 4 solvers × SDO {4, 8, 12} × ranks {1, 2, 4} × every
/// runtime backend × {basic, diagonal, full}. Environment overrides
/// apply on top (`MPIX_THREADS=2` runs every case on dim-0 slabs): no
/// run configuration may change a hash.
#[test]
fn outputs_match_the_space_order_layout_bitwise() {
    let spec = ModelSpec::new(&[8, 8, 8]).with_nbl(2);
    let nt = 6;
    let kinds = KernelKind::all().into_iter();
    let cases = kinds.flat_map(|k| [4, 8, 12].map(|so| (k, so)));
    for ((kind, so), &(name, golden_so, golden)) in cases.zip(&GOLDEN) {
        assert_eq!((kind.name(), so), (name, golden_so));
        let prop = Propagator::build(kind, spec.clone(), so);
        let mut fields = vec![prop.main_field()];
        fields.extend(prop.source_fields());
        let init = |ws: &mut Workspace| {
            prop.init(ws);
            prop.add_ricker_source(ws, 18.0, nt as usize);
        };
        let hash = |ws: &mut Workspace| {
            fields
                .iter()
                .fold(FNV_OFFSET, |h, f| fnv1a(h, &ws.gather(f)))
        };
        for ranks in [1, 2, 4] {
            for backend in available_backends() {
                for mode in [HaloMode::Basic, HaloMode::Diagonal, HaloMode::Full] {
                    let opts = prop
                        .apply_options(nt)
                        .with_ranks(ranks)
                        .with_backend(backend)
                        .with_mode(mode)
                        .with_verify(false)
                        .env_overrides();
                    let h = prop.op.run(&opts, init, hash).results[0];
                    assert_eq!(
                        h, golden,
                        "{name} SDO {so}, {ranks} rank(s), {backend}, {mode:?}: \
                         {h:#018x} differs from the space-order layout's {golden:#018x}"
                    );
                }
            }
        }
    }
}
