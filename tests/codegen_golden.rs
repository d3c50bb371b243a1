//! Golden test for the generated C (paper Listing 11) and the printable
//! compiler IRs (Listings 4–6).

use mpix::prelude::*;

fn listing1_operator() -> Operator {
    let mut ctx = Context::new();
    let grid = Grid::new(&[4, 4], &[2.0, 2.0]);
    let u = ctx.add_time_function("u", &grid, 2, 1);
    let eq = Eq::new(u.dt(), u.laplace());
    let stencil = eq.solve_for(&u.forward(), &ctx).unwrap();
    Operator::build(ctx, grid, vec![stencil]).unwrap()
}

#[test]
fn generated_c_matches_golden() {
    let op = listing1_operator();
    let c = op.c_code_for(&ApplyOptions::default().with_mode(HaloMode::Basic));
    let golden = "\
#include <xmmintrin.h>
#include <pmmintrin.h>

void Kernel(const int time_m, const int time_M)
{
  /* Flush denormal numbers to zero in hardware */
  _MM_SET_DENORMALS_ZERO_MODE(_MM_DENORMALS_ZERO_ON);
  _MM_SET_FLUSH_ZERO_MODE(_MM_FLUSH_ZERO_ON);
  float r0 = -1.0F*dt;
  float r1 = -1.0F/(dt);
  float r2 = -1.0F/(h_x*h_x);
  float r3 = -1.0F/(h_y*h_y);
  
  for (int time = time_m, t0 = (time + 0)%(2), t1 = (time + 1)%(2); time <= time_M; time += 1, t0 = (time + 0)%(2), t1 = (time + 1)%(2))
  {
    haloupdate_u(cart_comm, t0, /*radius*/ 1);
    #pragma omp parallel for schedule(static)
    for (int x = x_m; x <= x_M; x += 1)
    {
      #pragma omp simd aligned(u:32)
      for (int y = y_m; y <= y_M; y += 1)
      {
        float r4 = -2.0F*u[t0][x + 1][y + 1];
        u[t1][x + 1][y + 1] = r0*(r1*u[t0][x + 1][y + 1] + r2*(u[t0][x][y + 1] + u[t0][x + 2][y + 1] + r4) + r3*(u[t0][x + 1][y] + u[t0][x + 1][y + 2] + r4));
      }
    }
  }
}
";
    assert_eq!(c, golden, "generated C drifted from golden:\n{c}");
}

#[test]
fn full_mode_c_has_overlap_structure() {
    let op = listing1_operator();
    let c = op.c_code_for(&ApplyOptions::default().with_mode(HaloMode::Full));
    let begin = c.find("haloupdate_begin_u").expect("async update");
    let core = c.find("/* CORE region */").expect("core loop");
    let wait = c.find("halowait_u").expect("wait call");
    let rem = c.find("/* REMAINDER regions */").expect("remainder loops");
    assert!(begin < core && core < wait && wait < rem, "{c}");
    // CORE bounds are inset by the radius.
    assert!(c.contains("x_m + r_x"), "{c}");
}

#[test]
fn schedule_tree_matches_listing4_shape() {
    let op = listing1_operator();
    let s = op.schedule_tree();
    let golden = "\
<List>
  <Time [sequential]>
    <Halo(u[t+0])>
    <Exprs cluster0 over 2 space dims>
";
    assert_eq!(s, golden, "schedule tree drifted:\n{s}");
}

#[test]
fn iet_printer_shows_halospot_metadata() {
    let op = listing1_operator();
    let s = op.iet_string();
    assert!(s.contains("<Callable Kernel>"), "{s}");
    assert!(s.contains("<HaloSpot(u[t+0]) >"), "{s}");
    assert!(s.contains("[affine,sequential] Iteration time"), "{s}");
    assert!(s.contains("vector-dim"), "{s}");
    // The expression is shown with parameters substituted.
    assert!(s.contains("u[t+1] ="), "{s}");
}

#[test]
fn elastic_c_contains_staggered_structure() {
    // The elastic kernel's C must show two loop nests separated by the
    // fresh-velocity exchange.
    let spec = mpix::solvers::ModelSpec::new(&[8, 8, 8]).with_nbl(0);
    let op = mpix::solvers::elastic::operator(&spec, 4);
    let c = op.c_code_for(&ApplyOptions::default().with_mode(HaloMode::Basic));
    let vx_up = c.find("vx[t1]").expect("velocity update");
    let txx_up = c.find("txx[t1][").expect("stress update");
    assert!(vx_up < txx_up, "velocity cluster must precede stress");
    // Between them, the fresh velocities are exchanged at t1.
    let between = &c[vx_up..txx_up];
    assert!(
        between.contains("haloupdate_vx(cart_comm, t1"),
        "missing fresh-velocity exchange:\n{between}"
    );
    // so-4 staggered derivative reaches offsets 0..3 around halo 4.
    assert!(c.contains("[z + 4]") || c.contains("[z + 2]"), "{c}");
}
